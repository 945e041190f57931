// kb-cold and kb-edit: offline KB grading through GradingCampaign.
//
// Both grade the KB replicated 16 times under the scaled universe with
// the lockstep engine. kb-cold grades it cold (no store): trajectory
// capture should dominate. kb-edit is the CI regrade loop — load the
// baseline store, apply 1-3 test edits, regrade through the store, save
// to a fresh directory: store I/O should dominate and capture almost
// vanish. The oracle grades the same inputs cold with the per-fault
// engine.
#include <algorithm>
#include <filesystem>

#include "core/gradestore.hpp"
#include "inputs.hpp"
#include "report/report.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace core = ctk::core;
namespace fs = std::filesystem;

std::string signature(const core::GradingResult& result,
                      const std::string& csv) {
    return digest(csv) + " " + digest(core::outcome_fingerprint(result));
}

core::GradingResult grade(std::vector<core::FamilyGradingSetup> setups,
                          core::GradingOptions options) {
    core::GradingCampaign grading(std::move(options));
    for (auto& setup : setups) grading.add(std::move(setup));
    return grading.run_all();
}

/// The reference engine: per-fault grading, no store.
std::string reference_signature(std::vector<core::FamilyGradingSetup> setups,
                                unsigned jobs) {
    core::GradingOptions options;
    options.jobs = jobs;
    const auto result = grade(std::move(setups), options);
    return signature(result, ctk::report::coverage_to_csv(result.to_coverage()));
}

Clock::duration to_duration(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

/// run_all with the streaming hooks observing when classification and
/// the first verdict happen. When `traced`, records the run_all span
/// and its children: golden runs and trajectory capture are derived
/// from the durations run_all returns (laid out in its phase order),
/// classification runs from the first on_family to the return.
core::GradingResult observed_run_all(std::vector<core::FamilyGradingSetup> setups,
                                     core::GradingOptions options,
                                     Tracer& tracer, bool traced, long op,
                                     int parent, Clock::time_point op_start,
                                     OpRecord& rec) {
    std::optional<Clock::time_point> first_family;
    std::optional<Clock::time_point> first_fault;
    options.on_family = [&](std::size_t, const core::FamilyGrade&) {
        if (!first_family) first_family = Clock::now();
    };
    options.on_fault = [&](std::size_t, std::size_t, const core::FaultGrade&) {
        if (!first_fault) first_fault = Clock::now();
    };
    const auto start = Clock::now();
    auto result = grade(std::move(setups), std::move(options));
    const auto end = Clock::now();
    rec.first_verdict_s = seconds_between(op_start, first_fault.value_or(end));
    rec.faults = result.fault_count();
    if (!traced) return result;

    const int run = tracer.record({"core.grading.run_all", start, end, parent, op});
    double golden_s = 0.0;
    for (const auto& family : result.families) golden_s += family.golden_wall_s;
    const auto golden_end = std::min(end, start + to_duration(golden_s));
    const auto capture_end =
        std::min(end, golden_end + to_duration(result.lockstep_capture_s));
    tracer.record({"core.grading.golden", start, golden_end, run, op, 0, true});
    tracer.record({"core.lockstep.capture", golden_end, capture_end, run, op, 0,
                   true});
    tracer.record({"core.grading.classify",
                   std::max(capture_end, first_family.value_or(end)), end, run,
                   op});
    return result;
}

void lockstep_samples(RunReport& report, const core::GradingResult& r) {
    auto& s = report.layer_samples;
    s["core.lockstep.captures"].push_back(double(r.lockstep_captures));
    s["core.lockstep.evaluate_busy_ms"].push_back(r.lockstep_evaluate_s * 1e3);
    if (r.lockstep_words != 0)
        s["core.lockstep.lanes_per_word"].push_back(
            double(r.lockstep_lane_evals) / double(r.lockstep_words));
    if (r.fault_count() != 0)
        s["core.lockstep.lane_share"].push_back(double(r.lockstep_lanes) /
                                                double(r.fault_count()));
}

core::GradingOptions lockstep_options(const RunConfig& config) {
    core::GradingOptions options;
    options.jobs = config.jobs;
    options.lockstep = true;
    return options;
}

std::uintmax_t directory_bytes(const fs::path& dir) {
    std::uintmax_t bytes = 0;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.is_regular_file()) bytes += entry.file_size();
    return bytes;
}

} // namespace

References kb_cold_reference(std::uint64_t seed, unsigned jobs) {
    const auto in = make_kb_cold_inputs(seed);
    References refs;
    for (std::size_t i = 0; i < in.pool.size(); ++i)
        refs[std::to_string(i)] = reference_signature(build_setups(in.pool[i]), jobs);
    return refs;
}

RunReport kb_cold_run(const RunConfig& config, const References& refs,
                      Tracer& tracer) {
    const auto in = make_kb_cold_inputs(config.seed);
    RunReport report;
    const auto op = [&](std::size_t index, bool traced) {
        const std::size_t input = index % in.pool.size();
        const long id = static_cast<long>(index);
        OpRecord rec;
        rec.traced = traced;
        std::string csv;
        core::GradingResult result;
        const auto start = Clock::now();
        try {
            ScopedSpan root(tracer, traced, "op", id, -1);
            std::vector<core::FamilyGradingSetup> setups;
            {
                ScopedSpan span(tracer, traced, "core.plan.compile", id, root.id());
                setups = build_setups(in.pool[input]);
            }
            result = observed_run_all(std::move(setups), lockstep_options(config),
                                      tracer, traced, id, root.id(), start, rec);
            ScopedSpan span(tracer, traced, "report.csv", id, root.id());
            csv = ctk::report::coverage_to_csv(result.to_coverage());
        } catch (const std::exception& e) {
            rec.ok = false;
            note_failure(report, "op " + std::to_string(index) + ": " + e.what());
        }
        rec.latency_s = seconds_between(start, Clock::now());
        if (rec.ok && (!result.clean() ||
                       signature(result, csv) != expected(config, refs, std::to_string(input)))) {
            rec.ok = false;
            note_failure(report, "op " + std::to_string(index) + ": output of kb " +
                                     std::to_string(input) +
                                     " differs from the per-fault reference");
        }
        if (traced) lockstep_samples(report, result);
        return rec;
    };
    // Set-up: the first operations, untimed (cold caches, first
    // allocations); five of them so the median is steady.
    run_offline(config, 5, 1, op, report);
    report.peak_rss_mb = self_peak_rss_mb();
    return report;
}

References kb_edit_reference(std::uint64_t seed, unsigned jobs) {
    // Families grade independently, so the cold grade of an edited KB is
    // the per-fault grade of every unedited replica (graded once) with
    // the edited replicas' own per-fault grades spliced in.
    const auto in = make_kb_edit_inputs(seed);
    core::GradingOptions options;
    options.jobs = jobs;
    const core::GradingResult baseline = grade(build_setups(in.kb), options);
    References refs;
    for (std::size_t i = 0; i < in.edit_sets.size(); ++i) {
        auto setups = build_setups(in.kb);
        apply_edits(setups, in.edit_sets[i]);
        std::vector<std::size_t> edited;
        for (const auto& e : in.edit_sets[i]) edited.push_back(e.replica);
        std::sort(edited.begin(), edited.end());
        edited.erase(std::unique(edited.begin(), edited.end()), edited.end());
        std::vector<core::FamilyGradingSetup> subset;
        for (const auto r : edited) subset.push_back(std::move(setups[r]));
        const auto regraded = grade(std::move(subset), options);
        core::GradingResult spliced = baseline;
        for (std::size_t k = 0; k < edited.size(); ++k)
            spliced.families[edited[k]] = regraded.families[k];
        refs[std::to_string(i)] = signature(
            spliced, ctk::report::coverage_to_csv(spliced.to_coverage()));
    }
    return refs;
}

RunReport kb_edit_run(const RunConfig& config, const References& refs,
                      Tracer& tracer) {
    const auto in = make_kb_edit_inputs(config.seed);
    const fs::path baseline = fs::path(config.workdir) / "baseline-store";
    RunReport report;

    // Set-up: seed the baseline store with a cold lockstep grade of the
    // unedited KB and save it. Repeated three times for a steady median;
    // the last save is the baseline every op loads.
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = Clock::now();
        core::GradeStore store;
        auto options = lockstep_options(config);
        options.store = &store;
        const auto result = grade(build_setups(in.kb), options);
        fs::remove_all(baseline);
        store.save(baseline.string());
        report.setups_s.push_back(seconds_between(start, Clock::now()));
        if (!result.clean()) note_failure(report, "baseline grading is not clean");
    }

    const auto op = [&](std::size_t index, bool traced) {
        const std::size_t input = index % in.edit_sets.size();
        const long id = static_cast<long>(index);
        const fs::path out_dir =
            fs::path(config.workdir) / ("store-" + std::to_string(index));
        OpRecord rec;
        rec.traced = traced;
        std::string csv;
        core::GradingResult result;
        core::GradeStore store;
        const auto start = Clock::now();
        try {
            ScopedSpan root(tracer, traced, "op", id, -1);
            {
                ScopedSpan span(tracer, traced, "core.gradestore.load", id, root.id());
                store = core::GradeStore::load(baseline.string());
            }
            std::vector<core::FamilyGradingSetup> setups;
            {
                ScopedSpan span(tracer, traced, "core.plan.compile", id, root.id());
                setups = build_setups(in.kb);
                apply_edits(setups, in.edit_sets[input]);
            }
            auto options = lockstep_options(config);
            options.store = &store;
            result = observed_run_all(std::move(setups), options, tracer, traced,
                                      id, root.id(), start, rec);
            {
                ScopedSpan span(tracer, traced, "report.csv", id, root.id());
                csv = ctk::report::coverage_to_csv(result.to_coverage());
            }
            ScopedSpan span(tracer, traced, "core.gradestore.save", id, root.id());
            store.save(out_dir.string());
        } catch (const std::exception& e) {
            rec.ok = false;
            note_failure(report, "op " + std::to_string(index) + ": " + e.what());
        }
        rec.latency_s = seconds_between(start, Clock::now());
        if (rec.ok && (!result.clean() ||
                       signature(result, csv) != expected(config, refs, std::to_string(input)))) {
            rec.ok = false;
            note_failure(report, "op " + std::to_string(index) + ": regrade with edit set " +
                                     std::to_string(input) +
                                     " differs from a cold per-fault grade");
        }
        if (traced) {
            lockstep_samples(report, result);
            const auto& st = store.stats();
            auto& s = report.layer_samples;
            if (st.pairs_consulted() != 0)
                s["core.gradestore.hit_ratio"].push_back(
                    double(st.pair_hits) / double(st.pairs_consulted()));
            s["core.gradestore.pairs_replayed"].push_back(
                double(st.pair_misses + st.pair_stale));
            if (fs::exists(out_dir))
                s["core.gradestore.bytes"].push_back(double(directory_bytes(out_dir)));
        }
        fs::remove_all(out_dir);
        return rec;
    };
    run_offline(config, 0, 0, op, report);
    report.peak_rss_mb = self_peak_rss_mb();
    return report;
}

} // namespace perfbench
