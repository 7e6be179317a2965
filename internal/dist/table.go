package dist

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
)

// rankTableOrder is the canonical Table III row order; stages outside it
// (if a future engine adds any) are appended alphabetically.
var rankTableOrder = []string{
	engine.PhaseDrawMinibatch,
	engine.PhaseDeployMinibatch,
	engine.PhaseUpdatePhi,
	engine.PhaseSampleNeighbors,
	engine.PhaseLoadPi,
	engine.PhaseComputePhi,
	engine.PhaseUpdatePi,
	engine.PhaseUpdateBetaTheta,
	engine.PhasePerplexity,
	engine.PhaseTotal,
}

// RankTable renders Result.RankPhases as a per-rank × per-stage text table
// of mean milliseconds per iteration (cmd/ocd-train -rank-table). The
// master-only stages (minibatch draw, perplexity reduce) show "-" on worker
// ranks; iterations <= 0 falls back to totals.
func RankTable(rankPhases []map[string]time.Duration, iterations int) string {
	if len(rankPhases) == 0 {
		return ""
	}
	div := float64(iterations)
	unit := "ms/iter"
	if iterations <= 0 {
		div = 1
		unit = "ms total"
	}

	// Row set: canonical order first, then any unknown stages sorted.
	known := make(map[string]bool, len(rankTableOrder))
	for _, name := range rankTableOrder {
		known[name] = true
	}
	present := map[string]bool{}
	var extra []string
	for _, snap := range rankPhases {
		for name := range snap {
			if !present[name] && !known[name] {
				extra = append(extra, name)
			}
			present[name] = true
		}
	}
	sort.Strings(extra)
	var rows []string
	for _, name := range rankTableOrder {
		if present[name] {
			rows = append(rows, name)
		}
	}
	rows = append(rows, extra...)

	var b strings.Builder
	fmt.Fprintf(&b, "%-28s", "stage ("+unit+")")
	for r := range rankPhases {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("rank%d", r))
	}
	b.WriteByte('\n')
	for _, name := range rows {
		fmt.Fprintf(&b, "%-28s", name)
		for _, snap := range rankPhases {
			d, ok := snap[name]
			if !ok {
				fmt.Fprintf(&b, " %10s", "-")
				continue
			}
			fmt.Fprintf(&b, " %10.3f", float64(d)/float64(time.Millisecond)/div)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
