// The benchmark's own checks:
//  * the same seed generates byte-identical inputs, another seed
//    different ones (every workload);
//  * the tail-percentile rule: the highest percentile with at least ten
//    samples beyond it;
//  * an injected oracle mismatch counts as a failed operation and the
//    run goes on; a failed operation misses every latency limit;
//  * a traced run records the gate spans and reports every layer.
//
// Build target ctkbench_selftest; `python3 perfbench/run.py --selftest`
// builds and runs it. Exit status 0 when every check holds.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>
#include <string>

#include "inputs.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

int g_failed = 0;

void check(bool ok, const std::string& what) {
    std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
    if (!ok) ++g_failed;
}

void inputs_follow_the_seed() {
    for (const auto& w : workloads()) {
        const auto a = describe_inputs(w.name, 7);
        check(!a.empty() && a == describe_inputs(w.name, 7),
              w.name + ": seed 7 twice gives byte-identical inputs");
        check(a != describe_inputs(w.name, 8),
              w.name + ": seeds 7 and 8 give different inputs");
    }
}

std::vector<double> ramp(std::size_t n) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    std::reverse(v.begin(), v.end()); // the rule must not rely on order
    return v;
}

void tail_rule() {
    check(!latency_tail(ramp(10)), "10 samples: no percentile has ten beyond");
    struct Case {
        std::size_t n;
        double p;
        double value;
    };
    // The highest p whose nearest rank ceil(p/100 n) leaves >= 10 above.
    const Case cases[] = {{11, 100.0 / 11, 1}, {20, 50, 10},     {40, 75, 30},
                          {80, 87.5, 70},      {100, 90, 90},    {1000, 99, 990},
                          {10000, 99.9, 9990}};
    for (const auto& c : cases) {
        const auto t = latency_tail(ramp(c.n));
        const bool highest =
            t && percentile(ramp(c.n), t->percentile) == c.value &&
            percentile(ramp(c.n), t->percentile + 1e-6) > c.value;
        check(t && std::abs(t->percentile - c.p) < 1e-9 && t->value == c.value &&
                  t->samples == c.n && t->beyond == 10 && highest,
              std::to_string(c.n) + " samples: tail is p" +
                  std::to_string(c.p) + " = " + std::to_string(c.value));
    }
    check(percentile({3, 1, 2}, 50) == 2 && median({4, 1, 3, 2}) == 2.5,
          "median and nearest-rank p50");
}

RunConfig gate_config(bool trace) {
    RunConfig config;
    config.workload = "gate-grade";
    config.seed = 3;
    config.seconds = 0.5;
    config.trace = trace;
    return config;
}

void injected_mismatch_fails_ops() {
    const References refs = gate_reference(3, 1);
    Tracer off(false);

    const RunReport clean = gate_run(gate_config(false), refs, off);
    std::size_t failed = 0;
    for (const auto& op : clean.ops) failed += op.ok ? 0 : 1;
    check(!clean.ops.empty() && failed == 0, "gate-grade: every op matches its oracle");

    RunConfig config = gate_config(false);
    config.inject_mismatch = true;
    const RunReport bad = gate_run(config, refs, off);
    failed = 0;
    for (const auto& op : bad.ops) failed += op.ok ? 0 : 1;
    check(failed > 0 && failed < bad.ops.size(),
          "injected mismatch: the ops on that input fail, the run goes on (" +
              std::to_string(failed) + " of " + std::to_string(bad.ops.size()) + ")");
    const std::string json = result_json(bad, {});
    check(json.find("\"correct\": false") != std::string::npos &&
              json.find("\"failed\": " + std::to_string(failed)) != std::string::npos,
          "injected mismatch: the result says correct=false and counts them");
}

void failed_ops_miss_every_latency_limit() {
    RunReport report;
    for (int i = 0; i < 40; ++i) {
        OpRecord op;
        op.latency_s = 0.001;
        op.ok = i < 19; // 21 of 40 failed: the median is a failure
        report.ops.push_back(op);
    }
    std::vector<std::string> lines;
    const auto metrics = end_to_end_metrics(report, lines);
    check(metrics.at(1).name == "latency_p50_ms" && std::isinf(metrics.at(1).value),
          "a failed op counts as infinitely slow in the latency percentiles");
}

void traced_run_records_layers() {
    const References refs = gate_reference(3, 1);
    Tracer tracer(true);
    const RunReport report = gate_run(gate_config(true), refs, tracer);
    const auto layers = tracer.self_times();
    for (const char* span : {"op", "gate.bench_io.parse", "gate.faults.collapse",
                             "gate.tpg.random", "gate.atpg.podem", "report.csv"})
        check(layers.count(span) == 1, std::string("traced gate-grade records ") + span);
    check(layers.count("core.lockstep.capture") == 0,
          "traced gate-grade records no KB spans");
    std::vector<std::string> lines;
    const auto metrics = per_layer_metrics(report, tracer, lines);
    bool all_finite = !metrics.empty();
    for (const auto& m : metrics) all_finite = all_finite && std::isfinite(m.value);
    check(all_finite, "per-layer metrics are all reported and finite");
    std::size_t failed = 0;
    for (const auto& op : report.ops) failed += op.ok ? 0 : 1;
    check(failed == 0, "traced (staged) gate ops match grade_netlist at jobs 1");
}

} // namespace

int main() {
    inputs_follow_the_seed();
    tail_rule();
    injected_mismatch_fails_ops();
    failed_ops_miss_every_latency_limit();
    traced_run_records_layers();
    std::cout << (g_failed == 0 ? "all checks passed\n"
                                : std::to_string(g_failed) + " check(s) failed\n");
    return g_failed == 0 ? 0 : 1;
}
