package main

import (
	"io"
	"testing"
)

// gated builds a report holding the given benchmark rows, np matmul
// rows and cluster section; empty arguments leave their section out.
func gated(t *testing.T, bench, np []result, cl *clusterResult) report {
	t.Helper()
	rep := report{}
	set := func(key string, v any) {
		if err := rep.set(key, v); err != nil {
			t.Fatal(err)
		}
	}
	if bench != nil {
		set("benchmarks", bench)
	}
	if np != nil {
		set("np", &npResult{MatMul: np})
	}
	if cl != nil {
		set("cluster", cl)
	}
	return rep
}

func mkRow(name string, ns float64, allocs int64) result {
	return result{Name: name, NsPerOp: ns, AllocsOp: allocs}
}

func TestGateRules(t *testing.T) {
	prepared := []result{mkRow("Prepared/warm/N=256", 1000, 0)}
	speedup := func(s float64) *clusterResult { return &clusterResult{Speedup2Shard: s} }
	for _, tc := range []struct {
		name      string
		base, cur report
		failures  int
		wantErr   bool
	}{
		{name: "prepared ns at budget", base: gated(t, prepared, nil, nil),
			cur: gated(t, []result{mkRow("Prepared/warm/N=256", 1100, 0)}, nil, nil)},
		{name: "prepared ns over budget", base: gated(t, prepared, nil, nil),
			cur: gated(t, []result{mkRow("Prepared/warm/N=256", 1101, 0)}, nil, nil), failures: 1},
		{name: "pack ns at budget", base: gated(t, []result{mkRow("Pack/warm/N=256", 1000, 0)}, nil, nil),
			cur: gated(t, []result{mkRow("Pack/warm/N=256", 1100, 0)}, nil, nil)},
		{name: "pack ns over budget", base: gated(t, []result{mkRow("Pack/warm/N=256", 1000, 0)}, nil, nil),
			cur: gated(t, []result{mkRow("Pack/warm/N=256", 1101, 0)}, nil, nil), failures: 1},
		{name: "np ns at budget", base: gated(t, nil, []result{mkRow("NpMatMul/warm/N=256", 1000, 0)}, nil),
			cur: gated(t, nil, []result{mkRow("NpMatMul/warm/N=256", 1100, 0)}, nil)},
		{name: "np ns over budget", base: gated(t, nil, []result{mkRow("NpMatMul/warm/N=256", 1000, 0)}, nil),
			cur: gated(t, nil, []result{mkRow("NpMatMul/warm/N=256", 1101, 0)}, nil), failures: 1},
		{name: "prepared allocates", base: gated(t, prepared, nil, nil),
			cur: gated(t, []result{mkRow("Prepared/warm/N=256", 1000, 1)}, nil, nil), failures: 1},
		{name: "pack allocates", base: gated(t, prepared, nil, nil),
			cur: gated(t, []result{mkRow("Pack/warm/N=256", 1000, 1)}, nil, nil), failures: 1},
		{name: "np allocates", base: gated(t, nil, []result{mkRow("NpMatMul/warm/N=256", 1000, 0)}, nil),
			cur: gated(t, nil, []result{mkRow("NpMatMul/warm/N=256", 1000, 1)}, nil), failures: 1},
		{name: "allocs gated without a baseline row", base: gated(t, prepared, nil, nil),
			cur: gated(t, []result{mkRow("Prepared/warm/N=256", 1000, 0), mkRow("Prepared/warm/N=8", 1e9, 2)}, nil, nil), failures: 1},
		{name: "ungated rows pass", base: gated(t, append([]result{mkRow("MatVec/N=256", 1, 0)}, prepared...), nil, nil),
			cur: gated(t, append([]result{mkRow("MatVec/N=256", 9, 9)}, prepared...), nil, nil)},
		{name: "baseline without prepared rows", base: gated(t, []result{mkRow("MatVec/N=256", 1000, 0)}, nil, nil),
			cur: gated(t, prepared, nil, nil), wantErr: true},
		{name: "no np section: alloc check only", base: gated(t, prepared, nil, nil),
			cur: gated(t, nil, []result{mkRow("NpMatMul/warm/N=256", 1e12, 0)}, nil)},
		{name: "no np section: allocs still fail", base: gated(t, prepared, nil, nil),
			cur: gated(t, nil, []result{mkRow("NpMatMul/warm/N=256", 1e12, 3)}, nil), failures: 1},
		{name: "no cluster section: floor passes", base: gated(t, prepared, nil, nil),
			cur: gated(t, nil, nil, speedup(1.6))},
		{name: "no cluster section: floor fails", base: gated(t, prepared, nil, nil),
			cur: gated(t, nil, nil, speedup(1.59)), failures: 1},
		{name: "speedup at baseline budget", base: gated(t, nil, nil, speedup(2.5)),
			cur: gated(t, nil, nil, speedup(2.0))},
		{name: "speedup under baseline budget", base: gated(t, nil, nil, speedup(2.5)),
			cur: gated(t, nil, nil, speedup(1.99)), failures: 1},
		{name: "speedup under floor", base: gated(t, nil, nil, speedup(1.7)),
			cur: gated(t, nil, nil, speedup(1.59)), failures: 1},
		{name: "every failure reported", base: gated(t, prepared, []result{mkRow("NpMatMul/warm/N=256", 1000, 0)}, speedup(2.5)),
			cur: gated(t, []result{mkRow("Prepared/warm/N=256", 2000, 1)}, []result{mkRow("NpMatMul/warm/N=256", 2000, 1)}, speedup(1.5)), failures: 6},
		{name: "no baseline: floor only", base: nil,
			cur: gated(t, []result{mkRow("Prepared/warm/N=256", 2000, 5)}, nil, speedup(1.5)), failures: 1},
		{name: "no baseline: floor passes", base: nil,
			cur: gated(t, []result{mkRow("Prepared/warm/N=256", 2000, 5)}, nil, speedup(1.6))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			failures, err := gate(io.Discard, tc.base, tc.cur)
			if (err != nil) != tc.wantErr {
				t.Fatalf("gate error = %v, want error %v", err, tc.wantErr)
			}
			if len(failures) != tc.failures {
				t.Fatalf("gate failures = %q, want %d", failures, tc.failures)
			}
		})
	}
}
