package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event export: TraceBundles (a run log's spans, or a buffering
// Tracer's) rendered in the JSON Object Format that Perfetto and
// chrome://tracing load directly. Each rank becomes a process (pid = rank)
// and each Tracer track becomes a thread within it, so the UI shows one swim
// lane per rank with engine, DKV-client, and DKV-server activity stacked
// inside. Span ids, parents, peers, and iteration labels travel in the
// per-event args. The file is a rendering for the viewer only: the run log
// is the record, and ocd-analyze -chrome produces this from it.

// chromeDoc is the trace-event JSON Object Format envelope. Viewers ignore
// unknown top-level keys, so otherData carries the drop accounting.
type chromeDoc struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	OtherData       chromeOther   `json:"otherData"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

type chromeOther struct {
	DroppedByRank map[string]int64 `json:"dropped_by_rank"`
}

// chromeEvent is one trace event. "X" complete events carry ts+dur; "M"
// metadata events name processes and threads.
type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	TS   float64     `json:"ts"`            // microseconds
	Dur  float64     `json:"dur,omitempty"` // microseconds
	PID  int         `json:"pid"`
	TID  int         `json:"tid"`
	Args *chromeArgs `json:"args,omitempty"`
}

// chromeArgs carries the span fields the viewer shows on click. Iter and
// Peer are pointers so a legitimate 0 survives omitempty; nil encodes
// "absent" (-1 on the span).
type chromeArgs struct {
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Iter   *int   `json:"iter,omitempty"`
	Peer   *int   `json:"peer,omitempty"`
	Tag    uint32 `json:"tag,omitempty"`

	// Metadata events reuse the args object for the name payload.
	Name string `json:"name,omitempty"`
}

// trackName labels the thread lane for a Tracer track id.
func trackName(track int) string {
	switch track {
	case TrackEngine:
		return "engine"
	case TrackDKVClient:
		return "dkv client"
	case TrackDKVServer:
		return "dkv server"
	default:
		return fmt.Sprintf("track %d", track)
	}
}

// WriteChromeTrace renders the bundles as Chrome trace-event JSON. Output is
// deterministic: bundles are ordered by rank, spans by (start, id), so the
// golden-file test and repeated exports of one run are byte-identical.
func WriteChromeTrace(w io.Writer, bundles []TraceBundle) error {
	ordered := append([]TraceBundle(nil), bundles...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Rank < ordered[j].Rank })

	doc := chromeDoc{
		DisplayTimeUnit: "ms",
		OtherData:       chromeOther{DroppedByRank: map[string]int64{}},
	}
	for _, b := range ordered {
		doc.OtherData.DroppedByRank[fmt.Sprintf("%d", b.Rank)] = b.Dropped

		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: b.Rank,
			Args: &chromeArgs{Name: fmt.Sprintf("rank %d", b.Rank)},
		})
		tracks := map[int]bool{}
		for _, sp := range b.Spans {
			tracks[sp.Track] = true
		}
		trackIDs := make([]int, 0, len(tracks))
		for t := range tracks {
			trackIDs = append(trackIDs, t)
		}
		sort.Ints(trackIDs)
		for _, t := range trackIDs {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: b.Rank, TID: t,
				Args: &chromeArgs{Name: trackName(t)},
			})
		}

		spans := append([]Span(nil), b.Spans...)
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].StartNS != spans[j].StartNS {
				return spans[i].StartNS < spans[j].StartNS
			}
			return spans[i].ID < spans[j].ID
		})
		for _, sp := range spans {
			args := &chromeArgs{ID: uint64(sp.ID), Parent: uint64(sp.Parent), Tag: sp.Tag}
			if sp.Iter >= 0 {
				it := sp.Iter
				args.Iter = &it
			}
			if sp.Peer != NoPeer {
				p := sp.Peer
				args.Peer = &p
			}
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: sp.Name, Cat: sp.Cat, Ph: "X",
				TS:  float64(sp.StartNS) / 1e3,
				Dur: float64(sp.DurNS) / 1e3,
				PID: sp.Rank, TID: sp.Track,
				Args: args,
			})
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("obs: writing chrome trace: %w", err)
	}
	return nil
}
