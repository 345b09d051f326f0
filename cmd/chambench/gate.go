package main

import (
	"fmt"
	"io"
	"strings"
)

const (
	// maxWarmRegression is the warm ns/op ratio over baseline beyond which
	// the gate fails.
	maxWarmRegression = 1.10
	// maxClusterRegression lets the 2-shard speedup drift 25% under the
	// baseline: wall-clock fleet runs jitter more than the single-process
	// warm loops, and clusterSpeedupFloor always applies regardless.
	maxClusterRegression = 1.25
	// clusterSpeedupFloor is the acceptance bar: 2 shards must clear this
	// aggregate-throughput multiple over 1 shard.
	clusterSpeedupFloor = 1.6
)

// Metric names a gated row carries.
const (
	nsPerOp     = "ns_per_op"
	allocsPerOp = "allocs_per_op"
	speedup     = "speedup"
)

// A rule bounds one metric of every current row whose name starts with
// prefix. With ratio set the bound is relative to the baseline row of the
// same name (rows the baseline lacks are skipped); otherwise it is the
// absolute bound.
type rule struct {
	prefix, metric string
	higher         bool    // the metric is better when higher
	bound          float64 // absolute bound, when ratio is 0
	ratio          float64 // regression budget against the baseline row
	need           bool    // a baseline matching no current row under prefix is an error
	floor          bool    // enforced on runs without a baseline too
}

// rules is every threshold `chambench -compare` (make bench-diff) holds
// the measured sections to: the warm prepared apply, pack tree and
// batched matmul must stay allocation-free and within 10% of the
// baseline, and the 2-shard fleet must clear the 1.6x floor and stay
// within 25% of the baseline speedup.
var rules = []rule{
	{prefix: "Prepared/warm", metric: nsPerOp, ratio: maxWarmRegression, need: true},
	{prefix: "Pack/warm", metric: nsPerOp, ratio: maxWarmRegression},
	{prefix: "NpMatMul/warm", metric: nsPerOp, ratio: maxWarmRegression},
	{prefix: "Prepared/warm", metric: allocsPerOp},
	{prefix: "Pack/warm", metric: allocsPerOp},
	{prefix: "NpMatMul/warm", metric: allocsPerOp},
	{prefix: "Cluster/2-shard", metric: speedup, higher: true, bound: clusterSpeedupFloor, floor: true},
	{prefix: "Cluster/2-shard", metric: speedup, higher: true, ratio: maxClusterRegression},
}

// row is one named measurement the rules read.
type row struct {
	name   string
	values map[string]float64
}

// gateRows flattens the gated sections of rep: every warm-path and np
// matmul benchmark row, plus the cluster section's 2-shard speedup.
func gateRows(rep report) ([]row, error) {
	var bench []result
	var np npResult
	var cl *clusterResult
	for key, v := range map[string]any{"benchmarks": &bench, "np": &np, "cluster": &cl} {
		if err := rep.get(key, v); err != nil {
			return nil, err
		}
	}
	var rows []row
	for _, r := range append(bench, np.MatMul...) {
		rows = append(rows, row{r.Name, map[string]float64{nsPerOp: r.NsPerOp, allocsPerOp: float64(r.AllocsOp)}})
	}
	if cl != nil {
		rows = append(rows, row{"Cluster/2-shard", map[string]float64{speedup: cl.Speedup2Shard}})
	}
	return rows, nil
}

// gate evaluates every rule against the rows of cur, logging each check
// to w, and returns one line per failed check. A nil base means there is
// no baseline: only the floor rules run. The error is for a report that
// cannot be gated at all.
func gate(w io.Writer, base, cur report) ([]string, error) {
	curRows, err := gateRows(cur)
	if err != nil {
		return nil, err
	}
	baseRows, err := gateRows(base)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	baseByName := make(map[string]row, len(baseRows))
	for _, r := range baseRows {
		baseByName[r.name] = r
	}
	var failures []string
	for _, ru := range rules {
		if base == nil && !ru.floor {
			continue
		}
		matched, checked := false, 0
		for _, r := range curRows {
			if !strings.HasPrefix(r.name, ru.prefix) {
				continue
			}
			matched = true
			v, limit := r.values[ru.metric], ru.bound
			if ru.ratio > 0 {
				b := baseByName[r.name].values[ru.metric]
				if b <= 0 {
					fmt.Fprintf(w, "  %-24s %-13s %14.2f  (no baseline row)\n", r.name, ru.metric, v)
					continue
				}
				checked++
				limit = b * ru.ratio
				if ru.higher {
					limit = b / ru.ratio
				}
			}
			status := "ok"
			if (ru.higher && v < limit) || (!ru.higher && v > limit) {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: %s %.2f, limit %.2f", r.name, ru.metric, v, limit))
			}
			fmt.Fprintf(w, "  %-24s %-13s %14.2f  (limit %.2f)  %s\n", r.name, ru.metric, v, limit, status)
		}
		if ru.need && matched && checked == 0 {
			return nil, fmt.Errorf("baseline has no %s rows to gate on", ru.prefix)
		}
	}
	return failures, nil
}
