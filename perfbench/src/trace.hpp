// Spans recorded by the benchmark around its calls into each ctk layer.
//
// A span has a name (the layer, e.g. "core.gradestore.load"), start and
// end on steady_clock, the span that caused it and the operation it
// belongs to. Spans stay in memory and are written out once, at exit, as
// trace-event JSON (the chrome://tracing / Perfetto format). A layer's
// self time is its spans' duration minus what their child spans cover.
//
// Some layers only report a duration (GradingResult::lockstep_capture_s,
// FamilyGrade::golden_wall_s); those become "derived" spans, laid inside
// their parent in the program's phase order and marked as such.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Span {
    std::string name;
    Clock::time_point start{};
    Clock::time_point end{};
    int parent = -1;      ///< index of the causing span, -1 for a root
    long op = -1;         ///< operation id; -1 outside any operation
    int lane = 0;         ///< client or thread lane, for the viewer
    bool derived = false; ///< placed from a duration the program returned
};

/// Aggregated self time of one layer.
struct LayerTime {
    std::size_t calls = 0;
    double total_s = 0.0; ///< summed span durations
    double self_s = 0.0;  ///< summed durations minus child spans
};

class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Record a finished span; returns its id, -1 when disabled.
    int record(Span span);
    /// Open a span starting now; returns its id, -1 when disabled.
    int open(std::string name, long op, int parent);
    /// Close a span opened by open(); ignores -1.
    void close(int id);

    [[nodiscard]] std::map<std::string, LayerTime> self_times() const;

    /// Write every span as trace-event JSON ("ph":"X" complete events,
    /// microseconds since the first span). Throws ctk::Error on failure.
    void write_trace_events(const std::string& path) const;

private:
    [[nodiscard]] std::vector<Span> spans() const;

    bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; ///< guarded by mu_
};

/// RAII span: opens on construction when `on`, closes on destruction.
/// Untraced ops of a traced run pass on = false and read no clock.
class ScopedSpan {
public:
    ScopedSpan(Tracer& tracer, bool on, std::string name, long op, int parent)
        : tracer_(tracer),
          id_(on ? tracer.open(std::move(name), op, parent) : -1) {}
    ~ScopedSpan() { tracer_.close(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] int id() const { return id_; }

private:
    Tracer& tracer_;
    int id_;
};

/// The per-layer self-time table printed after a traced run.
[[nodiscard]] std::string
render_self_times(const std::map<std::string, LayerTime>& layers);

} // namespace perfbench
