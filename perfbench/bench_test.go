package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// tiny runs a workload at smoke-test size.
func tiny(t *testing.T, name string, trace bool, corrupt string) *result {
	t.Helper()
	wl, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := benchmark(config{
		wl: wl.scaled(0.05), seed: 7, seconds: 1.6, trace: trace,
		workDir: dir, spanDir: dir, setupReps: 2, corrupt: corrupt, out: io.Discard,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func names(res *result) []string {
	var out []string
	for _, m := range res.metrics {
		if !m.reportOnly {
			out = append(out, m.name)
		}
	}
	sort.Strings(out)
	return out
}

// Each workload completes at tiny size, passes the oracle, and reports
// exactly the metrics BENCHMARK.json declares: the end-to-end set
// untraced, the per-layer set traced.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res := tiny(t, wl.name, trace, "")
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl.name, trace, res.correct, res.failed, res.attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if got := names(res); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", wl.name, trace, got, want)
			}
		}
	}
}

// Every correctness check is live: falsifying one expectation of the
// oracle fails the run under that check's cause.
func TestOracleDetectsWrongExpectations(t *testing.T) {
	for _, c := range []struct{ corrupt, cause string }{
		{"final-locate", "final_locate"},
		{"device-sub", "device_sub"},
		{"locate", "locate"},
		{"locate-at", "locate_at"},
		{"trajectory", "trajectory"},
	} {
		t.Run(c.corrupt, func(t *testing.T) {
			res := tiny(t, "history-recover", false, c.corrupt)
			if res.correct || res.failed == 0 {
				t.Fatalf("run with a wrong %s expectation passed", c.corrupt)
			}
		})
	}
}

func TestSummarizeReportsSupportedPercentile(t *testing.T) {
	s := make([]int64, 500)
	for i := range s {
		s[i] = int64(i + 1)
	}
	sum := summarize(s)
	if sum.n != 500 || sum.p50 != 250 || sum.topQ != 0.98 || sum.top != 490 {
		t.Fatalf("got %+v", sum)
	}
	s = make([]int64, 2000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if sum := summarize(s); sum.topQ != 0.99 || sum.top != 1980 {
		t.Fatalf("got %+v", sum)
	}
}

// Capped moves never outgrow the history limit: each device moves at
// most its remaining budget, and a station whose devices are all spent
// draws empty frames.
func TestCapMovesBoundsEachDevice(t *testing.T) {
	fl, err := newFloor(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload{devices: 12, stations: 2}
	pop := newPopulation(wl, 3)
	w := &walk{fl: fl, cur: make([]int32, wl.devices)}
	log := &tickLog{}
	w.place(log, newRand(3))
	w.prepRounds(log, 2, newRand(4))
	const limit = 5 // three moves each left after placement and two rounds
	w.capMoves(pop.stations, log, limit)
	moves := make([]int, wl.devices)
	for _, d := range log.dev {
		moves[d]++
	}
	for round := 0; round < 50; round++ {
		for _, st := range pop.stations {
			seen := map[int32]bool{}
			w.frameDeltas(st, 4, func(dev, room int32) {
				if seen[dev] {
					t.Fatalf("device %d twice in one frame", dev)
				}
				seen[dev] = true
				moves[dev]++
			})
		}
	}
	for d, n := range moves {
		if n != limit {
			t.Errorf("device %d moved %d times, want %d", d, n, limit)
		}
	}
	for _, st := range pop.stations {
		if st.open != 0 {
			t.Errorf("station %d: %d devices still open", st.id, st.open)
		}
	}
}
