// gate-grade: netlist stuck-at grading, the only workload that runs
// gate/. Each op parses a .bench netlist and grades it with
// grade_netlist at the default flags (256 random patterns, PODEM
// top-up). The oracle grades the same text at jobs 1.
//
// A traced op cannot see inside grade_netlist, so it runs the same
// pipeline through the public stage calls grade_netlist is made of
// (collapse, random TPG, PODEM top-up folded into the coverage group)
// with a span around each; its output is checked like any other op's.
#include "gate/bench_io.hpp"
#include "gate/grade.hpp"
#include "inputs.hpp"
#include "report/report.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace gate = ctk::gate;
namespace core = ctk::core;

std::string coverage_csv(core::CoverageGroup group) {
    core::CoverageMatrix matrix;
    matrix.groups.push_back(std::move(group));
    return ctk::report::coverage_to_csv(matrix);
}

/// grade_netlist, stage by stage, with a span per stage.
gate::GateGradeResult staged_grade(const gate::Netlist& net,
                                   const gate::GateGradeOptions& options,
                                   Tracer& tracer, long op, int parent) {
    gate::GateGradeResult out;
    {
        ScopedSpan span(tracer, true, "gate.faults.collapse", op, parent);
        out.faults = gate::collapse_faults(net);
    }
    gate::RandomTpgOptions ropts;
    ropts.max_patterns = options.max_patterns;
    ropts.frames_per_pattern = net.is_sequential() ? 8 : 1;
    ropts.seed = options.seed;
    ropts.jobs = options.jobs;
    ropts.fault_packed = options.fault_packed;
    gate::RandomTpgResult rnd;
    {
        ScopedSpan span(tracer, true, "gate.tpg.random", op, parent);
        rnd = gate::random_tpg(net, out.faults, ropts);
    }
    out.patterns = std::move(rnd.patterns);
    out.random_patterns = out.patterns.size();
    out.random_detected = rnd.faultsim.detected;
    out.effective_workers = rnd.faultsim.effective_workers;
    out.coverage = gate::to_coverage(net, out.faults, rnd.faultsim);
    if (!options.atpg_top_up || net.is_sequential() ||
        rnd.faultsim.detected >= out.faults.size())
        return out;
    {
        ScopedSpan span(tracer, true, "gate.atpg.podem", op, parent);
        out.atpg = gate::run_atpg(net, out.faults, out.coverage, options.atpg);
    }
    // Fold the top-up into the coverage group exactly as grade_netlist
    // does: per_fault follows the Undetected entries in order.
    std::size_t k = 0;
    std::size_t pattern = 0;
    for (auto& entry : out.coverage.entries) {
        if (entry.outcome != core::FaultOutcome::Undetected) continue;
        switch (out.atpg.per_fault[k++].outcome) {
        case gate::AtpgOutcome::Detected:
            entry.outcome = core::FaultOutcome::Detected;
            entry.detected_by = out.random_patterns + pattern++;
            entry.detected_at = "pattern " + std::to_string(*entry.detected_by);
            break;
        case gate::AtpgOutcome::Untestable:
            entry.outcome = core::FaultOutcome::Untestable;
            break;
        case gate::AtpgOutcome::Aborted:
            break;
        }
    }
    return out;
}

} // namespace

References gate_reference(std::uint64_t seed, unsigned /*jobs*/) {
    const auto in = make_gate_inputs(seed);
    References refs;
    for (std::size_t i = 0; i < in.pool.size(); ++i) {
        gate::GateGradeOptions options;
        options.jobs = 1;
        const auto net = gate::parse_bench(in.pool[i].bench, in.pool[i].name);
        refs[std::to_string(i)] = digest(coverage_csv(gate::grade_netlist(net, options).coverage));
    }
    return refs;
}

RunReport gate_run(const RunConfig& config, const References& refs,
                   Tracer& tracer) {
    const auto in = make_gate_inputs(config.seed);
    RunReport report;
    const auto op = [&](std::size_t index, bool traced) {
        const std::size_t input = in.sequence[index % in.sequence.size()];
        const GateNetlist& netlist = in.pool[input];
        const long id = static_cast<long>(index);
        OpRecord rec;
        rec.traced = traced;
        std::string csv;
        gate::GateGradeResult result;
        const auto start = Clock::now();
        try {
            ScopedSpan root(tracer, traced, "op", id, -1);
            gate::Netlist net;
            {
                ScopedSpan span(tracer, traced, "gate.bench_io.parse", id, root.id());
                net = gate::parse_bench(netlist.bench, netlist.name);
            }
            gate::GateGradeOptions options;
            options.jobs = config.jobs;
            result = traced ? staged_grade(net, options, tracer, id, root.id())
                            : gate::grade_netlist(net, options);
            rec.first_verdict_s = seconds_between(start, Clock::now());
            rec.faults = result.faults.size();
            ScopedSpan span(tracer, traced, "report.csv", id, root.id());
            csv = coverage_csv(result.coverage);
        } catch (const std::exception& e) {
            rec.ok = false;
            note_failure(report, "op " + std::to_string(index) + ": " + e.what());
        }
        rec.latency_s = seconds_between(start, Clock::now());
        if (rec.ok && digest(csv) != expected(config, refs, std::to_string(input))) {
            rec.ok = false;
            note_failure(report, "op " + std::to_string(index) + ": " + netlist.name +
                                     " differs from grade_netlist at jobs 1");
        }
        if (traced) {
            auto& s = report.layer_samples;
            s["gate.grade.effective_workers"].push_back(double(result.effective_workers));
            if (!result.atpg.per_fault.empty())
                s["gate.atpg.abort_share"].push_back(
                    double(result.atpg.aborted) / double(result.atpg.per_fault.size()));
        }
        return rec;
    };
    // Set-up: the first, untimed pass over every netlist of the pool (a
    // single op's price depends on which netlist the seed puts first);
    // three passes for a steady median.
    run_offline(config, 3, in.pool.size(), op, report);
    report.peak_rss_mb = self_peak_rss_mb();
    return report;
}

} // namespace perfbench
