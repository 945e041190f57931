// perfbench — ctk's end-to-end benchmark: shared vocabulary.
//
// One run drives one workload for a fixed number of seconds and keeps
// one OpRecord per operation; a traced run additionally records spans
// (trace.hpp). Every operation's output is compared with a reference
// produced beforehand by a slower, independent engine (the "oracle",
// run in its own process so its memory never counts against the
// graded program's peak RSS). README.md describes the workloads.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

// -- statistics (stats.cpp) -------------------------------------------------

/// Median of `values` (mean of the middle pair for an even count);
/// 0 for an empty vector.
[[nodiscard]] double median(std::vector<double> values);

[[nodiscard]] double mean(const std::vector<double>& values);

/// The latency tail: the highest percentile that leaves at least ten
/// samples beyond it. Percentiles are nearest-rank: the p-th percentile
/// of n sorted samples is the one at rank ceil(p/100 * n), and the
/// samples beyond it are the n - rank above that rank. So the tail is
/// the sample at rank n - 10, the p = 100 (n - 10) / n percentile. It
/// moves smoothly with n, unlike a fixed ladder (p75/p90/...) whose
/// level jumps when a run's sample count crosses a step.
struct Tail {
    double percentile = 0.0;
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0;
};

/// nullopt when there are 10 samples or fewer.
[[nodiscard]] std::optional<Tail> latency_tail(std::vector<double> samples);

/// Nearest-rank percentile (p in (0, 100]); 0 for an empty vector.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Content digest used to compare outputs with their references:
/// 64-bit FNV-1a in hex plus the byte length.
[[nodiscard]] std::string digest(std::string_view bytes);

/// Deterministic 64-bit mixer (splitmix64 finaliser): derives
/// independent sub-seeds and the traced/untraced assignment of ops.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

// -- one run ------------------------------------------------------------------

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Scratch directory for stores, sockets and the spans file; a path
    /// relative to the working directory (socket paths have a short
    /// length limit).
    std::string workdir = ".";
    std::string ctkd_path; ///< ctkd binary (ctkd-fanout only)
    unsigned jobs = 4;     ///< worker threads of the graded program
    /// Test hook: corrupt the reference of input key "0" so every
    /// operation on it fails its oracle check.
    bool inject_mismatch = false;
};

/// Oracle output: input key -> digest of the expected output.
using References = std::map<std::string, std::string>;

struct OpRecord {
    double latency_s = 0.0;
    /// Start of the op to its first fault verdict: the first Verdict
    /// frame through ctkd, the first on_fault callback offline, the
    /// return of grade_netlist for netlists (which reports all at once).
    double first_verdict_s = 0.0;
    std::size_t faults = 0; ///< fault verdicts delivered
    bool ok = true;         ///< no error, no refusal, output == reference
    bool traced = false;
};

struct RunReport {
    std::vector<OpRecord> ops;      ///< timed operations, in order
    double elapsed_s = 0.0;         ///< wall time of the timed phase
    std::vector<double> setups_s;   ///< each repetition of the set-up
    double peak_rss_mb = 0.0;       ///< high-water mark of the graded process
    /// Per-layer values that are not span self times (counts, ratios,
    /// busy times summed across workers), one sample per traced op.
    std::map<std::string, std::vector<double>> layer_samples;
    /// Per-layer values measured once per run (daemon exit counters).
    std::map<std::string, double> layer_totals;
    std::vector<std::string> notes; ///< extra lines for the human report
    std::vector<std::string> failures; ///< first few failure messages
};

/// Whether op `index` of a traced run records spans: a pseudo-random
/// half, so traced and untraced ops see the same input mix and their
/// latency difference is the tracing overhead.
[[nodiscard]] inline bool traced_op(bool trace, std::uint64_t index) {
    return trace && (mix64(index) & 1U) != 0;
}

} // namespace perfbench
