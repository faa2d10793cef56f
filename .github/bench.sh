#!/bin/sh
# bench.sh — run the benchmark suite and write machine-readable
# benchmark records (benchmark name -> ns/op, bytes/op, allocs/op) so the
# performance trajectory of the repo is tracked in data, not prose.
#
# Usage:
#   .github/bench.sh [output.json] [ingest-output.json] [analytics-output.json] [hotpath-output.json] [fanout-output.json] [flush-output.json]
#
# Environment:
#   BENCHTIME  go test -benchtime value (default 0.5s; CI may use 1s,
#              quick smoke runs 1x)
#   BENCHPKGS  packages to benchmark (default: the storage, locdb,
#              server, loadgen, analytics packages and the repo root)
#
# The main record includes, when both sides of BenchmarkLocdbDelta were
# measured, the derived "locdb_delta_overhead_pct": the saturation
# overhead of the durable (history + WAL) store versus the in-memory
# store on the workstation delta hot path — the PR 4 acceptance metric
# (see docs/OPERATIONS.md for how to read it on single-core hosts).
#
# The second record (default BENCH_PR5.json) is the ingest-throughput
# benchmark derived from BenchmarkIngestDelta: single-envelope
# MsgPresence versus sessioned MsgPresenceBatch frames, in ns per delta
# and deltas/sec, plus "batched_speedup" — the PR 5 acceptance metric
# (bar: >= 5x on the same hardware).
#
# The third record (default BENCH_PR7.json) is the history-analytics
# acceptance record derived from BenchmarkContactTrace and
# BenchmarkSegmentCompression in internal/analytics: contact-trace
# query latency percentiles over a million-device-day sealed history
# (bar: p99 < 1000 ms on one core) and sealed-segment bytes per
# presence run versus the 29-byte WAL record (bar: ratio >= 3).
#
# The fourth record (default BENCH_PR8.json) is the zero-alloc serving
# hot-path record: before (the PR 4 baselines, hardcoded) and after
# ns/bytes/allocs per op for the gated hot-path benchmarks, plus
# "serve_conn_alloc_reduction" — BenchmarkServeConnPipelined allocs/op
# before over after, the PR 8 acceptance metric (bar: >= 5x) — and
# "snapshot_unchanged_bytes_per_op", which must be 0 now that All()
# serves a cached merged snapshot on a quiescent database. Every gated
# benchmark must have BOTH sides of its before/after pair (or be
# explicitly marked as new, with no earlier number in any record) —
# an incomplete pair fails the run instead of silently emitting one
# side.
#
# The fifth record (default BENCH_PR9.json) is the staged fan-out
# acceptance record (PR 9): per-event write-path cost with subscribers
# attached in the synchronous versus the staged delivery configuration
# (BenchmarkFanoutWritePath; "write_path_speedup" is the acceptance
# metric, bar: >= 3x), the tree-level publish cost across delivery
# modes and publish shapes (BenchmarkFanoutPublishBatch), and the
# mixed ingest=70,subscribe=30 loadgen throughput in both modes
# (BenchmarkMixedIngestSubscribe; "mixed_throughput_ratio" must favor
# staged). It also repeats the gated hot-path benchmarks so the
# regression guard (.github/bench_guard.sh) has shared keys with the
# previous record.
#
# The sixth record (default BENCH_PR10.json) is the flush-coalescing
# acceptance record (PR 10): the depth-16 pipelined serving cost before
# (the committed PR 9 figure, hardcoded) and after the syscall-lean
# writer ("pipelined_speedup", bar: >= 2x on the one-core CI container),
# the pipeline-depth sweep (BenchmarkServeConnPipelinedDepth/d*), the
# event-burst pusher cost with its writes/event coalescing metric
# (BenchmarkEventBurstFlush), and the mixed-workload amortization
# (BenchmarkMixedFlushCoalesce): "frames_per_flush" is how many frames
# the server sent per write(2) flush (acceptance bar: >= 4), which is
# also the "syscall_reduction" versus a flush-per-frame writer. The
# gated hot-path set rides along for the regression guard.
set -eu

out="${1:-BENCH_PR4.json}"
ingest_out="${2:-BENCH_PR5.json}"
analytics_out="${3:-BENCH_PR7.json}"
hot_out="${4:-BENCH_PR8.json}"
fanout_out="${5:-BENCH_PR9.json}"
flush_out="${6:-BENCH_PR10.json}"
benchtime="${BENCHTIME:-0.5s}"
pkgs="${BENCHPKGS:-./internal/storage ./internal/locdb ./internal/fanout ./internal/server ./internal/loadgen ./internal/analytics .}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# No pipe here: plain sh has no pipefail, and a benchmark that fails to
# build or run must fail this script (and CI), not vanish into tee.
# shellcheck disable=SC2086 # pkgs is a deliberate word list
if ! go test -run '^$' -bench . -benchmem -benchtime "$benchtime" $pkgs > "$tmp" 2>&1; then
    cat "$tmp" >&2
    echo "bench.sh: go test -bench failed" >&2
    exit 1
fi
cat "$tmp" >&2

awk -v benchtime="$benchtime" -v ingout="$ingest_out" -v anaout="$analytics_out" -v hotout="$hot_out" -v fanout="$fanout_out" -v flushout="$flush_out" '
BEGIN {
    n = 0
    "go version" | getline gover
    "date -u +%Y-%m-%dT%H:%M:%SZ" | getline now
    "uname -srm" | getline host
    printf "{\n"
    printf "  \"schema\": \"bips-bench-v1\",\n"
    printf "  \"go\": \"%s\",\n", gover
    printf "  \"date\": \"%s\",\n", now
    printf "  \"host\": \"%s\",\n", host
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"benchmarks\": {\n"
}
$1 == "pkg:" { pkg = $2; next }
/^Benchmark/ {
    name = $1
    # Strip the -GOMAXPROCS suffix go test appends on multi-core hosts.
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "B/op") bytes = $i
        if ($(i + 1) == "allocs/op") allocs = $i
        # Custom b.ReportMetric pairs from the analytics benchmarks.
        if ($(i + 1) == "p50-ms") ctp50 = $i
        if ($(i + 1) == "p99-ms") ctp99 = $i
        if ($(i + 1) == "device-days") devdays = $i
        if ($(i + 1) == "bytes/run") bytesrun = $i
        if ($(i + 1) == "ratio") ratio = $i
        if ($(i + 1) == "sealed-runs") sealedruns = $i
        # Loadgen throughput from BenchmarkMixedIngestSubscribe.
        if ($(i + 1) == "req/s") reqs[name] = $i
        # Flush-coalescing metrics from the PR 10 benchmarks.
        if ($(i + 1) == "frames/flush") fpf[name] = $i
        if ($(i + 1) == "writes/event") wpe[name] = $i
    }
    if (ns == "") next
    key = pkg "/" name
    if (n > 0) printf ",\n"
    printf "    \"%s\": {\"ns_per_op\": %s", key, ns
    if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    printf "}"
    n++
    if (ns != "" && bytes != "" && allocs != "") {
        # Hot-path capture for the PR 8 record.
        hotns[name] = ns; hotbytes[name] = bytes; hotallocs[name] = allocs
    }
    if (name == "BenchmarkLocdbDelta/mem") memns = ns
    if (name == "BenchmarkLocdbDelta/durable") durns = ns
    if (name == "BenchmarkIngestDelta/single")  singlens = ns
    if (name == "BenchmarkIngestDelta/batched") batchns = ns
}
END {
    printf "\n  }"
    if (memns != "" && durns != "") {
        # Saturation overhead: total CPU per delta from one writer,
        # every delta paying its own group commit (worst case, see
        # docs/OPERATIONS.md 4.3).
        printf ",\n  \"locdb_delta_overhead_pct\": %.1f", (durns - memns) * 100.0 / memns
    }
    printf "\n}\n"

    # Third record: the history-analytics acceptance metrics (same pass
    # over the bench output, written to its own file).
    if (ctp99 == "" || bytesrun == "") {
        # BENCHPKGS may deliberately exclude internal/analytics; record
        # the omission instead of failing the whole run.
        print "bench.sh: analytics benchmarks not in this run; " anaout " records the omission" > "/dev/stderr"
        printf "{\n  \"schema\": \"bips-analytics-bench-v1\",\n" > anaout
        printf "  \"skipped\": \"BenchmarkContactTrace/BenchmarkSegmentCompression not in this run (BENCHPKGS excludes internal/analytics?)\"\n}\n" > anaout
    } else {
        printf "{\n" > anaout
        printf "  \"schema\": \"bips-analytics-bench-v1\",\n" > anaout
        printf "  \"go\": \"%s\",\n", gover > anaout
        printf "  \"date\": \"%s\",\n", now > anaout
        printf "  \"host\": \"%s\",\n", host > anaout
        printf "  \"benchtime\": \"%s\",\n", benchtime > anaout
        # The PR 7 acceptance metrics: contact-trace latency over a
        # million-device-day sealed history (bar: p99 < 1000 ms on one
        # core) and sealed bytes per presence run vs the 29-byte WAL
        # record (bar: compression_ratio >= 3).
        printf "  \"contact_trace_p50_ms\": %s,\n", ctp50 > anaout
        printf "  \"contact_trace_p99_ms\": %s,\n", ctp99 > anaout
        printf "  \"device_days\": %.0f,\n", devdays > anaout
        printf "  \"bytes_per_run\": %s,\n", bytesrun > anaout
        printf "  \"compression_ratio\": %s,\n", ratio > anaout
        printf "  \"sealed_runs\": %.0f\n", sealedruns > anaout
        printf "}\n" > anaout
    }

    # Second record: the ingest write-path throughput (same pass over
    # the bench output, written to its own file).
    if (singlens == "" || batchns == "") {
        # BENCHPKGS may deliberately exclude internal/server; record the
        # omission instead of failing the whole run.
        print "bench.sh: BenchmarkIngestDelta not in this run; " ingout " records the omission" > "/dev/stderr"
        printf "{\n  \"schema\": \"bips-ingest-bench-v1\",\n" > ingout
        printf "  \"skipped\": \"BenchmarkIngestDelta not in this run (BENCHPKGS excludes internal/server?)\"\n}\n" > ingout
        exit 0
    }
    printf "{\n" > ingout
    printf "  \"schema\": \"bips-ingest-bench-v1\",\n" > ingout
    printf "  \"go\": \"%s\",\n", gover > ingout
    printf "  \"date\": \"%s\",\n", now > ingout
    printf "  \"host\": \"%s\",\n", host > ingout
    printf "  \"benchtime\": \"%s\",\n", benchtime > ingout
    printf "  \"single_ns_per_delta\": %s,\n", singlens > ingout
    printf "  \"batched_ns_per_delta\": %s,\n", batchns > ingout
    printf "  \"single_deltas_per_sec\": %.0f,\n", 1e9 / singlens > ingout
    printf "  \"batched_deltas_per_sec\": %.0f,\n", 1e9 / batchns > ingout
    # The PR 5 acceptance metric: sessioned batched ingest vs one
    # MsgPresence envelope per delta, same hardware (bar: >= 5).
    printf "  \"batched_speedup\": %.1f\n", singlens / batchns > ingout
    printf "}\n" > ingout

    # Fourth record: the zero-alloc serving hot path (PR 8). Before
    # values are the PR 4 baselines from BENCH_PR4.json at commit time;
    # after values come from this run.
    scname = "BenchmarkServeConnPipelined"
    if (!(scname in hotallocs)) {
        print "bench.sh: hot-path benchmarks not in this run; " hotout " records the omission" > "/dev/stderr"
        printf "{\n  \"schema\": \"bips-hotpath-bench-v1\",\n" > hotout
        printf "  \"skipped\": \"BenchmarkServeConnPipelined not in this run (BENCHPKGS excludes internal/server?)\"\n}\n" > hotout
        printf "{\n  \"schema\": \"bips-fanout-bench-v1\",\n" > fanout
        printf "  \"skipped\": \"fan-out benchmarks not in this run (BENCHPKGS excludes internal/server?)\"\n}\n" > fanout
        printf "{\n  \"schema\": \"bips-flush-bench-v1\",\n" > flushout
        printf "  \"skipped\": \"flush benchmarks not in this run (BENCHPKGS excludes internal/server?)\"\n}\n" > flushout
        exit 0
    }
    printf "{\n" > hotout
    printf "  \"schema\": \"bips-hotpath-bench-v1\",\n" > hotout
    printf "  \"go\": \"%s\",\n", gover > hotout
    printf "  \"date\": \"%s\",\n", now > hotout
    printf "  \"host\": \"%s\",\n", host > hotout
    printf "  \"benchtime\": \"%s\",\n", benchtime > hotout
    # PR 4 baselines (before the pooled-buffer refactor), plus the
    # pre-PR-8 fan-out number from BENCH_PR4.json — every gated
    # benchmark needs a before, or an explicit "new in this record"
    # marker; anything else is an incomplete pair and fails the run.
    before["BenchmarkDispatchLocate"]      = "1285 336 9"
    before["BenchmarkServeConnPipelined"]  = "18075 2072 46"
    before["BenchmarkApplyBatch/batched"]  = "177 166 0"
    before["BenchmarkIngestDelta/batched"] = "3549 852 8"
    before["BenchmarkFanoutEventPush"]     = "2139 240 7"
    before["BenchmarkLocdbSnapshotAll"]    = "124275 76390 9"
    # Benchmarks introduced by the PR 8 work itself: no earlier number
    # exists in any record, so after-only is the complete pair.
    newbench["BenchmarkLocdbAllSince"] = 1
    ngate = split("BenchmarkDispatchLocate BenchmarkServeConnPipelined BenchmarkApplyBatch/batched BenchmarkIngestDelta/batched BenchmarkFanoutEventPush BenchmarkLocdbSnapshotAll BenchmarkLocdbAllSince", gates, " ")
    printf "  \"benchmarks\": {\n" > hotout
    first = 1
    for (gi = 1; gi <= ngate; gi++) {
        g = gates[gi]
        if (!(g in hotallocs)) {
            print "bench.sh: gated hot-path benchmark " g " was not measured in this run" > "/dev/stderr"
            fail = 1
            continue
        }
        if (!(g in before) && !(g in newbench)) {
            print "bench.sh: no before baseline for gated benchmark " g " (add it to the before table, or mark it newbench with a comment saying why no earlier number exists)" > "/dev/stderr"
            fail = 1
        }
        if (!first) printf ",\n" > hotout
        first = 0
        printf "    \"%s\": {", g > hotout
        if (g in before) {
            split(before[g], bv, " ")
            printf "\"before\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}, ", bv[1], bv[2], bv[3] > hotout
        }
        printf "\"after\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}}", hotns[g], hotbytes[g], hotallocs[g] > hotout
    }
    printf "\n  },\n" > hotout
    # The PR 8 acceptance metric: ServeConnPipelined allocs/op before
    # over after (bar: >= 5x).
    if (hotallocs[scname] + 0 > 0)
        printf "  \"serve_conn_alloc_reduction\": %.1f,\n", 46.0 / hotallocs[scname] > hotout
    else
        printf "  \"serve_conn_alloc_reduction\": null,\n" > hotout
    # All() on a quiescent database must no longer rebuild O(devices)
    # bytes per call.
    printf "  \"snapshot_unchanged_bytes_per_op\": %s\n", hotbytes["BenchmarkLocdbSnapshotAll"] > hotout
    printf "}\n" > hotout

    # Fifth record: the staged fan-out acceptance (PR 9). Every
    # sync/staged mode pair must be complete — one side alone cannot
    # support the speedup claims, so a missing half fails the run.
    nfg = split("BenchmarkFanoutEventPush BenchmarkFanoutWritePath/sync BenchmarkFanoutWritePath/staged BenchmarkFanoutPublishBatch/sync/single BenchmarkFanoutPublishBatch/sync/batch64 BenchmarkFanoutPublishBatch/staged/single BenchmarkFanoutPublishBatch/staged/batch64 BenchmarkMixedIngestSubscribe/sync BenchmarkMixedIngestSubscribe/staged", fgates, " ")
    fpresent = 0
    for (fi = 1; fi <= nfg; fi++) if (fgates[fi] in hotns) fpresent++
    if (fpresent == 0) {
        print "bench.sh: fan-out benchmarks not in this run; " fanout " records the omission" > "/dev/stderr"
        printf "{\n  \"schema\": \"bips-fanout-bench-v1\",\n" > fanout
        printf "  \"skipped\": \"fan-out benchmarks not in this run (BENCHPKGS excludes internal/fanout, internal/server or internal/loadgen?)\"\n}\n" > fanout
    } else {
        for (fi = 1; fi <= nfg; fi++) {
            if (!(fgates[fi] in hotns)) {
                print "bench.sh: fan-out benchmark " fgates[fi] " was not measured — a sync/staged pair is incomplete" > "/dev/stderr"
                fail = 1
            }
        }
        printf "{\n" > fanout
        printf "  \"schema\": \"bips-fanout-bench-v1\",\n" > fanout
        printf "  \"go\": \"%s\",\n", gover > fanout
        printf "  \"date\": \"%s\",\n", now > fanout
        printf "  \"host\": \"%s\",\n", host > fanout
        printf "  \"benchtime\": \"%s\",\n", benchtime > fanout
        # The gated hot-path set rides along so bench_guard.sh has
        # shared keys against the previous (PR 8) record; then the
        # fan-out benchmarks themselves. FanoutEventPush keeps its
        # pre-PR-8 before pair; the mixed-load entries carry the
        # loadgen-reported throughput.
        nall = split("BenchmarkDispatchLocate BenchmarkServeConnPipelined BenchmarkApplyBatch/batched BenchmarkIngestDelta/batched BenchmarkLocdbSnapshotAll BenchmarkLocdbAllSince", allg, " ")
        for (fi = 1; fi <= nfg; fi++) allg[nall + fi] = fgates[fi]
        nall += nfg
        printf "  \"benchmarks\": {\n" > fanout
        ffirst = 1
        for (ai = 1; ai <= nall; ai++) {
            g = allg[ai]
            if (!(g in hotns)) continue
            if (!ffirst) printf ",\n" > fanout
            ffirst = 0
            printf "    \"%s\": {", g > fanout
            if (g in before) {
                split(before[g], bv, " ")
                printf "\"before\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}, ", bv[1], bv[2], bv[3] > fanout
            }
            if (g in reqs) {
                # Loadgen entries: ns/op is per completed request and
                # bytes/allocs cover a whole timed run — only the
                # meaningful numbers are recorded.
                printf "\"after\": {\"ns_per_op\": %s}, \"req_per_sec\": %s}", hotns[g], reqs[g] > fanout
            } else {
                printf "\"after\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}}", hotns[g], hotbytes[g], hotallocs[g] > fanout
            }
        }
        printf "\n  }" > fanout
        # The PR 9 acceptance metrics. write_path_speedup is what the
        # mutating goroutine stops paying per event with delivery staged
        # (bar: >= 3x); mixed_throughput_ratio is the end-to-end req/s
        # win on the ingest=70,subscribe=30 loadgen mix (bar: > 1).
        wpsync = hotns["BenchmarkFanoutWritePath/sync"]
        wpstaged = hotns["BenchmarkFanoutWritePath/staged"]
        if (wpsync != "" && wpstaged != "" && wpstaged + 0 > 0) {
            printf ",\n  \"write_path_sync_ns_per_event\": %s", wpsync > fanout
            printf ",\n  \"write_path_staged_ns_per_event\": %s", wpstaged > fanout
            printf ",\n  \"write_path_speedup\": %.1f", wpsync / wpstaged > fanout
        }
        msync = reqs["BenchmarkMixedIngestSubscribe/sync"]
        mstaged = reqs["BenchmarkMixedIngestSubscribe/staged"]
        if (msync != "" && mstaged != "" && msync + 0 > 0) {
            printf ",\n  \"mixed_sync_req_per_sec\": %s", msync > fanout
            printf ",\n  \"mixed_staged_req_per_sec\": %s", mstaged > fanout
            printf ",\n  \"mixed_throughput_ratio\": %.2f", mstaged / msync > fanout
        }
        printf "\n}\n" > fanout
    }

    # Sixth record: the flush-coalescing acceptance (PR 10). The before
    # figure for the pipelined benchmark is the committed PR 9 record
    # (flush-per-frame writer) on the same CI container class; the depth
    # sweep, burst-flush and mixed-coalescing benchmarks are new in this
    # record, so after-only is the complete pair for them.
    scname = "BenchmarkServeConnPipelined"
    if (!(scname in hotns)) {
        print "bench.sh: flush benchmarks not in this run; " flushout " records the omission" > "/dev/stderr"
        printf "{\n  \"schema\": \"bips-flush-bench-v1\",\n" > flushout
        printf "  \"skipped\": \"BenchmarkServeConnPipelined not in this run (BENCHPKGS excludes internal/server?)\"\n}\n" > flushout
    } else {
        before10[scname] = "3950 112 9"
        nfl = split(scname " BenchmarkServeConnPipelinedDepth/d1 BenchmarkServeConnPipelinedDepth/d4 BenchmarkServeConnPipelinedDepth/d16 BenchmarkServeConnPipelinedDepth/d64 BenchmarkEventBurstFlush BenchmarkMixedFlushCoalesce", flg, " ")
        # The rest of the gated hot-path set rides along so the
        # regression guard has shared keys with the PR 9 record.
        nfall = split("BenchmarkDispatchLocate BenchmarkApplyBatch/batched BenchmarkIngestDelta/batched BenchmarkFanoutEventPush BenchmarkLocdbSnapshotAll BenchmarkLocdbAllSince", fla, " ")
        for (fi = 1; fi <= nfl; fi++) fla[nfall + fi] = flg[fi]
        nfall += nfl
        for (fi = 1; fi <= nfl; fi++) {
            if (!(flg[fi] in hotns)) {
                print "bench.sh: flush benchmark " flg[fi] " was not measured in this run" > "/dev/stderr"
                fail = 1
            }
        }
        printf "{\n" > flushout
        printf "  \"schema\": \"bips-flush-bench-v1\",\n" > flushout
        printf "  \"go\": \"%s\",\n", gover > flushout
        printf "  \"date\": \"%s\",\n", now > flushout
        printf "  \"host\": \"%s\",\n", host > flushout
        printf "  \"benchtime\": \"%s\",\n", benchtime > flushout
        printf "  \"benchmarks\": {\n" > flushout
        flfirst = 1
        for (fi = 1; fi <= nfall; fi++) {
            g = fla[fi]
            if (!(g in hotns)) continue
            if (!flfirst) printf ",\n" > flushout
            flfirst = 0
            printf "    \"%s\": {", g > flushout
            if (g in before10) {
                split(before10[g], bv, " ")
                printf "\"before\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}, ", bv[1], bv[2], bv[3] > flushout
            }
            if (g in fpf) {
                printf "\"after\": {\"ns_per_op\": %s}, \"frames_per_flush\": %s, \"req_per_sec\": %s}", hotns[g], fpf[g], reqs[g] > flushout
            } else if (g in wpe) {
                printf "\"after\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}, \"writes_per_event\": %s}", hotns[g], hotbytes[g], hotallocs[g], wpe[g] > flushout
            } else {
                printf "\"after\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}}", hotns[g], hotbytes[g], hotallocs[g] > flushout
            }
        }
        printf "\n  }" > flushout
        # The PR 10 acceptance metrics: pipelined depth-16 cost against
        # the committed flush-per-frame figure (bar: >= 2x) and the
        # frames-per-flush amortization under the pipelined mixed
        # workload (bar: >= 4), which is by construction the write(2)
        # reduction versus flush-per-frame.
        if (hotns[scname] + 0 > 0) {
            printf ",\n  \"pipelined_before_ns_per_op\": 3950" > flushout
            printf ",\n  \"pipelined_after_ns_per_op\": %s", hotns[scname] > flushout
            printf ",\n  \"pipelined_speedup\": %.2f", 3950.0 / hotns[scname] > flushout
        }
        if ("BenchmarkMixedFlushCoalesce" in fpf) {
            printf ",\n  \"frames_per_flush\": %s", fpf["BenchmarkMixedFlushCoalesce"] > flushout
            printf ",\n  \"syscall_reduction\": %s", fpf["BenchmarkMixedFlushCoalesce"] > flushout
        }
        if ("BenchmarkEventBurstFlush" in wpe)
            printf ",\n  \"event_burst_writes_per_event\": %s", wpe["BenchmarkEventBurstFlush"] > flushout
        printf "\n}\n" > flushout
    }

    if (fail) {
        print "bench.sh: incomplete benchmark records (see above)" > "/dev/stderr"
        exit 1
    }
}' "$tmp" > "$out"

echo "wrote $out" >&2
echo "wrote $ingest_out" >&2
echo "wrote $analytics_out" >&2
echo "wrote $hot_out" >&2
echo "wrote $fanout_out" >&2
echo "wrote $flush_out" >&2
