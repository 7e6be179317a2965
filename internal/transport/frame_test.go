package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"
)

// tcpFrame encodes one wire frame: [tag][length][payload].
func tcpFrame(tag uint32, length int, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, tag)
	b = binary.LittleEndian.AppendUint32(b, uint32(length))
	return append(b, payload...)
}

// TestTCPLyingHeaderBoundedAlloc: a header claiming maxFrame bytes, followed
// by 1 KiB and a close, fails the receive with a *PeerLostError naming the
// peer, and the reader allocates in proportion to the bytes that arrived,
// not to the 1 GiB the header claimed.
func TestTCPLyingHeaderBoundedAlloc(t *testing.T) {
	c, raw := dialRawPeer(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := raw.Write(tcpFrame(5, maxFrame, make([]byte, 1<<10))); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	err := waitErr(t, "recv behind a lying header", 2*time.Second, func() error {
		_, err := c.Recv(1, 5)
		return err
	})
	runtime.ReadMemStats(&after)
	var lost *PeerLostError
	if !errors.As(err, &lost) || lost.Peer != 1 {
		t.Fatalf("recv error %v, want a *PeerLostError naming rank 1", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
		t.Fatalf("a header claiming %d bytes with 1 KiB behind it allocated %d MiB", maxFrame, grew>>20)
	}
}

// TestReleasedFrameIsReused: a released frame serves the next frame of its
// class, so a receive-and-release loop allocates nothing.
func TestReleasedFrameIsReused(t *testing.T) {
	if scribble != nil {
		t.Skip("the race detector's sync.Pool drops puts at random")
	}
	if allocs := testing.AllocsPerRun(100, func() { Release(newFrame(2500)) }); allocs != 0 {
		t.Fatalf("frame round trip allocates %v times, want 0", allocs)
	}
}

// TestReleaseScribblesUnderRace: in race-detector builds a released frame
// is overwritten before it is pooled, so a use after release reads garbage.
func TestReleaseScribblesUnderRace(t *testing.T) {
	if scribble == nil {
		t.Skip("scribbling is on in -race builds only")
	}
	b := bytes.Repeat([]byte{1}, 100)
	Release(b[:10])
	if bytes.Count(b, []byte{0xA5}) != len(b) {
		t.Fatalf("released frame not scribbled: % x", b[:16])
	}
}

// FuzzTCPFrames writes arbitrary bytes into rank 0's socket as rank 1.
// Every whole frame before the first abort frame or oversize header must be
// delivered intact; once the peer closes, a receive must fail typed within
// two seconds — *AbortError naming rank 1 if an abort frame came first,
// *PeerLostError naming rank 1 otherwise — and nothing may panic.
func FuzzTCPFrames(f *testing.F) {
	valid := tcpFrame(5, 5, []byte("hello"))
	f.Add(append(valid, tcpFrame(6, 0, nil)...))
	f.Add(valid[:len(valid)-2])
	f.Add(tcpFrame(5, maxFrame, make([]byte, 1<<10)))
	f.Add(append(valid, tcpFrame(TagAbort, 4, []byte("boom"))...))
	f.Add(tcpFrame(5, maxFrame+1, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, raw := dialRawPeer(t)
		if _, err := raw.Write(data); err != nil {
			t.Fatal(err)
		}
		// Walk the stream the way the reader must.
		type frame struct {
			tag     uint32
			payload []byte
		}
		var whole []frame
		var wantAbort, broken bool // an abort frame, an oversize header
		for rest := data; len(rest) >= 8 && !wantAbort && !broken; {
			tag := binary.LittleEndian.Uint32(rest)
			n := binary.LittleEndian.Uint32(rest[4:])
			if n > maxFrame {
				broken = true
				break
			}
			if uint64(len(rest)-8) < uint64(n) {
				break
			}
			wantAbort = tag == TagAbort
			whole = append(whole, frame{tag, rest[8 : 8+n]})
			rest = rest[8+n:]
		}
		c.SetDeadline(time.Now().Add(2 * time.Second))
		// An abort or an oversize header poisons rank 0 as soon as it is
		// read, which may be before the frames ahead of it are received.
		if !wantAbort && !broken {
			for _, fr := range whole {
				got, err := c.Recv(1, fr.tag)
				if err != nil {
					t.Fatalf("frame (tag %d, %d bytes) not delivered: %v", fr.tag, len(fr.payload), err)
				}
				if !bytes.Equal(got, fr.payload) {
					t.Fatalf("frame (tag %d) delivered as %x, sent %x", fr.tag, got, fr.payload)
				}
				Release(got)
			}
		}
		raw.Close()
		_, err := c.Recv(1, 0)
		var lost *PeerLostError
		var abort *AbortError
		switch {
		case wantAbort:
			if !errors.As(err, &abort) || abort.Rank != 1 {
				t.Fatalf("after an abort frame: %v, want an *AbortError naming rank 1", err)
			}
		case !errors.As(err, &lost) || lost.Peer != 1:
			t.Fatalf("after the peer closed: %v, want a *PeerLostError naming rank 1", err)
		}
	})
}
