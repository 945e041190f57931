#include "workload.hpp"

#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace perfbench {

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = {
        {"kb-cold", kb_cold_reference, kb_cold_run},
        {"kb-edit", kb_edit_reference, kb_edit_run},
        {"ctkd-fanout", fanout_reference, fanout_run},
        {"gate-grade", gate_reference, gate_run},
    };
    return all;
}

const Workload& find_workload(const std::string& name) {
    std::string known;
    for (const auto& w : workloads()) {
        if (w.name == name) return w;
        known += (known.empty() ? "" : ", ") + w.name;
    }
    throw std::invalid_argument("unknown workload '" + name + "' (known: " +
                                known + ")");
}

std::string expected(const RunConfig& config, const References& refs,
                     const std::string& key) {
    const auto it = refs.find(key);
    if (it == refs.end()) return {};
    return config.inject_mismatch && key == "0" ? it->second + "!injected"
                                                : it->second;
}

void note_failure(RunReport& report, const std::string& message) {
    if (report.failures.size() < 8) report.failures.push_back(message);
}

void run_offline(const RunConfig& config, std::size_t setup_passes,
                 std::size_t pass_ops, const OfflineOp& op,
                 RunReport& report) {
    std::size_t index = 0;
    for (std::size_t pass = 0; pass < setup_passes; ++pass) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < pass_ops; ++i, ++index) {
            OpRecord rec = op(index, false);
            // Checked and counted like any other op; its wall time is
            // part of a set-up sample, not a latency sample.
            rec.latency_s = std::numeric_limits<double>::quiet_NaN();
            report.ops.push_back(rec);
        }
        report.setups_s.push_back(seconds_between(start, Clock::now()));
    }
    // Throughput counts the wall time spent inside operations; the
    // oracle comparison between them is the benchmark's own work.
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(config.seconds));
    while (Clock::now() < deadline) {
        report.ops.push_back(op(index, traced_op(config.trace, index)));
        report.elapsed_s += report.ops.back().latency_s;
        ++index;
    }
}

double self_peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

namespace {

std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string fixed(double v, int precision) {
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(precision);
    out << v;
    return out.str();
}

/// Latency samples of the timed ops; a failed op never meets any
/// latency limit, so it counts as infinitely slow.
std::vector<double> latencies(const RunReport& report, bool traced_ops) {
    std::vector<double> out;
    for (const auto& op : report.ops) {
        if (std::isnan(op.latency_s) || op.traced != traced_ops) continue;
        out.push_back(op.ok ? op.latency_s
                            : std::numeric_limits<double>::infinity());
    }
    return out;
}

struct LayerMetric {
    const char* name;
    const char* unit;
    const char* span; ///< self time per call of this span; else samples
};

// Which end-to-end metric each layer moves, and on which workload, is
// mapped in README.md.
constexpr LayerMetric kLayers[] = {
    {"core.plan.compile_ms", "ms", "core.plan.compile"},
    {"core.grading.golden_ms", "ms", "core.grading.golden"},
    {"core.lockstep.capture_ms", "ms", "core.lockstep.capture"},
    {"core.lockstep.captures", "count", nullptr},
    {"core.lockstep.evaluate_busy_ms", "ms", nullptr},
    {"core.lockstep.lanes_per_word", "lanes/word", nullptr},
    {"core.lockstep.lane_share", "ratio", nullptr},
    {"core.grading.classify_ms", "ms", "core.grading.classify"},
    {"core.grading.other_ms", "ms", "core.grading.run_all"},
    {"core.gradestore.load_ms", "ms", "core.gradestore.load"},
    {"core.gradestore.save_ms", "ms", "core.gradestore.save"},
    {"core.gradestore.hit_ratio", "ratio", nullptr},
    {"core.gradestore.pairs_replayed", "count", nullptr},
    {"core.gradestore.bytes", "bytes", nullptr},
    {"report.csv_ms", "ms", "report.csv"},
    {"service.connect_ms", "ms", "service.connect"},
    {"service.wait_cold_ms", "ms", "service.wait_cold"},
    {"service.wait_warm_ms", "ms", "service.wait_warm"},
    {"service.stream_ms", "ms", "service.stream"},
    {"service.server_wall_ms", "ms", nullptr},
    {"service.cold_share", "ratio", nullptr},
    {"service.pair_misses", "count", nullptr},
    {"service.cache_hits", "count", nullptr},
    {"service.cache_misses", "count", nullptr},
    {"service.evictions", "count", nullptr},
    {"service.busy_rejected", "count", nullptr},
    {"gate.bench_io.parse_ms", "ms", "gate.bench_io.parse"},
    {"gate.faults.collapse_ms", "ms", "gate.faults.collapse"},
    {"gate.tpg.random_ms", "ms", "gate.tpg.random"},
    {"gate.grade.effective_workers", "count", nullptr},
    {"gate.atpg.podem_ms", "ms", "gate.atpg.podem"},
    {"gate.atpg.abort_share", "ratio", nullptr},
};

} // namespace

std::vector<Metric> end_to_end_metrics(const RunReport& report,
                                       std::vector<std::string>& lines) {
    const std::vector<double> lat = latencies(report, false);
    std::size_t faults = 0;
    std::vector<double> first;
    for (const auto& op : report.ops) {
        if (std::isnan(op.latency_s)) continue;
        faults += op.faults;
        if (op.ok) first.push_back(op.first_verdict_s);
    }
    Tail tail;
    if (const auto t = latency_tail(lat)) {
        tail = *t;
    } else {
        // No percentile has ten samples beyond it. Report the maximum
        // and say so.
        tail = {100.0, percentile(lat, 100.0), lat.size(), 0};
        lines.push_back("WARNING: 10 latency samples or fewer; "
                        "latency_tail_ms is the maximum");
    }
    const double fps =
        report.elapsed_s > 0.0 ? double(faults) / report.elapsed_s : 0.0;
    std::vector<Metric> out = {
        {"faults_per_s", fps, "1/s"},
        {"latency_p50_ms", percentile(lat, 50.0) * 1e3, "ms"},
        {"latency_tail_ms", tail.value * 1e3, "ms"},
        {"first_verdict_p50_ms", median(first) * 1e3, "ms"},
        {"setup_s", median(report.setups_s), "s"},
        {"peak_rss_mb", report.peak_rss_mb, "MiB"},
    };
    std::size_t failed = 0;
    for (const auto& op : report.ops) failed += op.ok ? 0 : 1;
    lines.push_back("latency_tail_ms is p" + fixed(tail.percentile, 2) +
                    " over " + std::to_string(tail.samples) + " samples (" +
                    std::to_string(tail.beyond) + " beyond it)");
    lines.push_back("error_rate = " +
                    fixed(report.ops.empty() ? 0.0
                                             : double(failed) /
                                                   double(report.ops.size()),
                          4) +
                    " (" + std::to_string(failed) + " of " +
                    std::to_string(report.ops.size()) + " ops failed)");
    lines.push_back("setup repetitions: " +
                    std::to_string(report.setups_s.size()));
    return out;
}

std::vector<Metric> per_layer_metrics(const RunReport& report,
                                      const Tracer& tracer,
                                      std::vector<std::string>& lines) {
    const auto layers = tracer.self_times();
    std::vector<Metric> out;
    for (const auto& l : kLayers) {
        double value = 0.0;
        if (l.span != nullptr) {
            const auto it = layers.find(l.span);
            if (it != layers.end() && it->second.calls > 0)
                value = it->second.self_s * 1e3 / double(it->second.calls);
        } else if (const auto it = report.layer_samples.find(l.name);
                   it != report.layer_samples.end()) {
            value = mean(it->second);
        } else if (const auto jt = report.layer_totals.find(l.name);
                   jt != report.layer_totals.end()) {
            value = jt->second;
        }
        out.push_back({l.name, value, l.unit});
    }
    // Tracing overhead: traced against untraced ops of this same run.
    const double traced = percentile(latencies(report, true), 50.0);
    const double plain = percentile(latencies(report, false), 50.0);
    const double overhead =
        plain > 0.0 ? 100.0 * (traced - plain) / plain : 0.0;
    out.push_back({"trace.overhead_pct", overhead, "%"});
    lines.push_back("per-layer self time (traced ops):");
    std::istringstream table(render_self_times(layers));
    for (std::string line; std::getline(table, line);) lines.push_back(line);
    lines.push_back("tracing overhead: median latency " +
                    fixed(traced * 1e3, 3) + " ms traced vs " +
                    fixed(plain * 1e3, 3) + " ms untraced (" +
                    fixed(overhead, 2) + " %)");
    return out;
}

std::string result_json(const RunReport& report,
                        const std::vector<Metric>& metrics) {
    std::size_t failed = 0;
    for (const auto& op : report.ops) failed += op.ok ? 0 : 1;
    std::string out = "{\"correct\": ";
    out += failed == 0 && !report.ops.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(report.ops.size());
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
               "\": {\"value\": " + number(metrics[i].value) +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
