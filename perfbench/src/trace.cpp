#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"

namespace perfbench {

int Tracer::record(Span span) {
    if (!enabled_) return -1;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size() - 1);
}

int Tracer::open(std::string name, long op, int parent) {
    if (!enabled_) return -1;
    Span span;
    span.name = std::move(name);
    span.op = op;
    span.parent = parent;
    span.start = Clock::now();
    span.end = span.start;
    return record(std::move(span));
}

void Tracer::close(int id) {
    if (id < 0) return;
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.at(static_cast<std::size_t>(id)).end = now;
}

std::vector<Span> Tracer::spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::map<std::string, LayerTime> Tracer::self_times() const {
    const std::vector<Span> all = spans();
    std::vector<double> child_s(all.size(), 0.0);
    for (const auto& span : all)
        if (span.parent >= 0)
            child_s[static_cast<std::size_t>(span.parent)] +=
                seconds_between(span.start, span.end);
    std::map<std::string, LayerTime> layers;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const double total = seconds_between(all[i].start, all[i].end);
        auto& layer = layers[all[i].name];
        ++layer.calls;
        layer.total_s += total;
        layer.self_s += std::max(0.0, total - child_s[i]);
    }
    return layers;
}

void Tracer::write_trace_events(const std::string& path) const {
    const std::vector<Span> all = spans();
    Clock::time_point epoch = all.empty() ? Clock::now() : all.front().start;
    for (const auto& span : all) epoch = std::min(epoch, span.start);
    auto micros = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - epoch).count();
    };
    std::ofstream out(path);
    out << std::fixed << std::setprecision(3);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        // Span names are dotted identifiers chosen by this benchmark;
        // they never need JSON escaping.
        out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
            << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":"
            << s.lane << ",\"ts\":" << micros(s.start)
            << ",\"dur\":" << micros(s.end) - micros(s.start)
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"op\":" << s.op
            << ",\"derived\":" << (s.derived ? "true" : "false") << "}}";
    }
    out << "\n]}\n";
    out.flush();
    if (!out) throw ctk::Error("cannot write trace file " + path);
}

std::string render_self_times(const std::map<std::string, LayerTime>& layers) {
    std::vector<std::pair<std::string, LayerTime>> rows(layers.begin(),
                                                        layers.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.second.self_s > b.second.self_s;
    });
    double all_self = 0.0;
    for (const auto& row : rows) all_self += row.second.self_s;
    std::ostringstream out;
    char line[160];
    std::snprintf(line, sizeof line, "  %-26s %8s %12s %12s %7s\n", "layer",
                  "calls", "self_ms", "self_ms/call", "share");
    out << line;
    for (const auto& [name, t] : rows) {
        std::snprintf(line, sizeof line, "  %-26s %8zu %12.3f %12.4f %6.1f%%\n",
                      name.c_str(), t.calls, t.self_s * 1e3,
                      t.calls != 0 ? t.self_s * 1e3 / double(t.calls) : 0.0,
                      all_self > 0.0 ? 100.0 * t.self_s / all_self : 0.0);
        out << line;
    }
    return out.str();
}

} // namespace perfbench
