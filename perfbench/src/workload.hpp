// The four workloads, the timed loop they share, and the metrics a run
// reports.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

struct Workload {
    std::string name;
    /// Oracle: the expected output digest of every distinct input the
    /// workload may grade, from a reference engine. Runs in its own
    /// process (ctkbench oracle).
    std::function<References(std::uint64_t seed, unsigned jobs)> reference;
    /// One measured run, every op checked against `refs`.
    std::function<RunReport(const RunConfig&, const References&, Tracer&)> run;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// Throws std::invalid_argument naming the known workloads.
[[nodiscard]] const Workload& find_workload(const std::string& name);

// Per-workload entry points (kb_workloads.cpp, fanout.cpp,
// gate_workload.cpp).
[[nodiscard]] References kb_cold_reference(std::uint64_t seed, unsigned jobs);
[[nodiscard]] RunReport kb_cold_run(const RunConfig&, const References&, Tracer&);
[[nodiscard]] References kb_edit_reference(std::uint64_t seed, unsigned jobs);
[[nodiscard]] RunReport kb_edit_run(const RunConfig&, const References&, Tracer&);
[[nodiscard]] References fanout_reference(std::uint64_t seed, unsigned jobs);
[[nodiscard]] RunReport fanout_run(const RunConfig&, const References&, Tracer&);
[[nodiscard]] References gate_reference(std::uint64_t seed, unsigned jobs);
[[nodiscard]] RunReport gate_run(const RunConfig&, const References&, Tracer&);

/// The reference digest for `key`, or "" when the oracle has none
/// (an op on such an input fails its check). Honours
/// RunConfig::inject_mismatch.
[[nodiscard]] std::string expected(const RunConfig& config,
                                   const References& refs,
                                   const std::string& key);

/// One operation of an offline workload: grade input `index` (the pool
/// position is the workload's business) and fill the record, `ok`
/// included.
using OfflineOp = std::function<OpRecord(std::size_t index, bool traced)>;

/// Run `setup_passes` untimed passes of `pass_ops` first operations
/// (each pass's wall time is one set-up sample), then operations until
/// `config.seconds` have passed. Every op, set-up ones too, is checked
/// and counted; elapsed_s sums the timed ops' latencies.
void run_offline(const RunConfig& config, std::size_t setup_passes,
                 std::size_t pass_ops, const OfflineOp& op,
                 RunReport& report);

/// High-water resident set of this process, in MiB.
[[nodiscard]] double self_peak_rss_mb();

/// Keep the first few failure messages for the human report.
void note_failure(RunReport& report, const std::string& message);

// -- result --------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// The end-to-end metrics of a run with tracing off; appends the human
/// report (tail percentile, sample count, error rate) to `lines`.
[[nodiscard]] std::vector<Metric>
end_to_end_metrics(const RunReport& report, std::vector<std::string>& lines);

/// The per-layer metrics of a traced run (every layer, zero where the
/// workload does not reach it); appends the self-time table and the
/// tracing overhead to `lines`.
[[nodiscard]] std::vector<Metric>
per_layer_metrics(const RunReport& report, const Tracer& tracer,
                  std::vector<std::string>& lines);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(const RunReport& report,
                                      const std::vector<Metric>& metrics);

} // namespace perfbench
