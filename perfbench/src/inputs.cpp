#include "inputs.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/kb.hpp"
#include "expr/expr.hpp"
#include "gate/bench_io.hpp"
#include "gate/circuits.hpp"

namespace perfbench {

namespace {

using ctk::Rng;
namespace core = ctk::core;

/// Independent generator per (seed, purpose).
Rng rng_for(std::uint64_t seed, std::uint64_t purpose) {
    return Rng(mix64(seed * 0x100000001b3ULL + purpose));
}

/// Uniform in [0, n) from the generator's high bits (the low bits of
/// xorshift64* are weak: next_below(2) barely alternates across seeds).
std::size_t below(Rng& rng, std::size_t n) {
    return std::min(n - 1, static_cast<std::size_t>(rng.next_unit() * double(n)));
}

template <typename T> void shuffle(std::vector<T>& v, Rng& rng) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(rng, i)]);
}

std::size_t scaled_universe_size(const std::string& family) {
    static const std::map<std::string, std::size_t> sizes = [] {
        std::map<std::string, std::size_t> out;
        for (const auto& f : core::kb::families())
            out[f] = core::kb_fault_universe(
                         f, {}, ctk::sim::UniverseOptions::scaled())
                         .size();
        return out;
    }();
    return sizes.at(family);
}

/// A KB replicated kKbCopies times; each replica keeps a seed-drawn
/// 95-100 % of its scaled universe in a seed-drawn order.
KbShape make_kb(Rng& rng) {
    KbShape kb;
    for (std::size_t copy = 0; copy < kKbCopies; ++copy)
        for (const auto& family : core::kb::families()) {
            Replica r;
            r.family = family;
            r.copy = copy;
            r.faults.resize(scaled_universe_size(family));
            std::iota(r.faults.begin(), r.faults.end(), std::size_t{0});
            shuffle(r.faults, rng);
            const double keep = rng.next_range(0.95, 1.0);
            r.faults.resize(std::max<std::size_t>(
                1, static_cast<std::size_t>(keep * double(r.faults.size()))));
            kb.push_back(std::move(r));
        }
    return kb;
}

/// Where a family's suite can be edited.
struct EditTargets {
    std::vector<std::size_t> last_step; ///< per test
    /// (test, step, action) of measured checks with an upper limit.
    std::vector<std::array<std::size_t, 3>> limits;
};

const EditTargets& edit_targets(const std::string& family) {
    static const std::map<std::string, EditTargets> targets = [] {
        std::map<std::string, EditTargets> out;
        for (const auto& f : core::kb::families()) {
            const auto setup = core::kb_grading_setup(f);
            EditTargets& t = out[f];
            const auto& tests = setup.script.tests;
            for (std::size_t ti = 0; ti < tests.size(); ++ti) {
                t.last_step.push_back(tests[ti].steps.size() - 1);
                for (std::size_t si = 0; si < tests[ti].steps.size(); ++si) {
                    const auto& actions = tests[ti].steps[si].actions;
                    for (std::size_t ai = 0; ai < actions.size(); ++ai)
                        if (actions[ai].call.kind ==
                                ctk::model::MethodKind::Get &&
                            actions[ai].call.max)
                            t.limits.push_back({ti, si, ai});
                }
            }
        }
        return out;
    }();
    return targets.at(family);
}

TestEdit make_edit(const KbShape& kb, const std::string& family, Rng& rng) {
    std::vector<std::size_t> replicas;
    for (std::size_t i = 0; i < kb.size(); ++i)
        if (kb[i].family == family) replicas.push_back(i);
    TestEdit e;
    e.replica = replicas[below(rng, replicas.size())];
    const EditTargets& t = edit_targets(family);
    if (rng.next_bool() && !t.limits.empty()) {
        const auto& at = t.limits[below(rng, t.limits.size())];
        e.kind = TestEdit::Kind::Limit;
        e.test = at[0];
        e.step = at[1];
        e.action = at[2];
        e.amount = rng.next_range(1.01, 1.05);
    } else {
        e.kind = TestEdit::Kind::Dwell;
        e.test = below(rng, t.last_step.size());
        e.step = t.last_step[e.test];
        e.amount = rng.next_range(0.05, 0.25);
    }
    return e;
}

/// `fixed` plus `count` seed-drawn families from `pool`, in catalogue
/// order.
std::vector<std::string> family_subset(std::vector<std::string> fixed,
                                       std::vector<std::string> pool,
                                       std::size_t count, Rng& rng) {
    shuffle(pool, rng);
    fixed.insert(fixed.end(), pool.begin(), pool.begin() + count);
    return core::kb::canonical_families(fixed);
}

struct GateSlot {
    std::vector<std::pair<std::string, std::size_t>> menu;
};

ctk::gate::Netlist generate(const std::string& generator, std::size_t size) {
    namespace c = ctk::gate::circuits;
    if (generator == "adder") return c::ripple_adder(size);
    if (generator == "parity") return c::parity_tree(size);
    if (generator == "alu") return c::alu(size);
    if (generator == "mux") return c::mux_tree(size);
    if (generator == "cmp") return c::comparator(size);
    throw std::invalid_argument("unknown generator " + generator);
}

void describe_kb(std::ostream& out, const KbShape& kb) {
    for (const auto& r : kb) {
        out << r.family << "#" << r.copy << ":";
        for (const auto f : r.faults) out << " " << f;
        out << "\n";
    }
}

} // namespace

KbColdInputs make_kb_cold_inputs(std::uint64_t seed) {
    Rng rng = rng_for(seed, 1);
    KbColdInputs in;
    for (int i = 0; i < 4; ++i) in.pool.push_back(make_kb(rng));
    return in;
}

KbEditInputs make_kb_edit_inputs(std::uint64_t seed) {
    Rng rng = rng_for(seed, 2);
    KbEditInputs in;
    in.kb = make_kb(rng);
    // Regrading an edited interior_light test costs several times more
    // than any other family's, so the pool is stratified: edit counts
    // cycle 1, 2, 3 and every family is edited equally often (a shuffled
    // deck). The seed picks replicas, tests and amounts, not the price.
    constexpr std::size_t kSets = 30;
    std::vector<std::string> deck;
    for (std::size_t i = 0; i < kSets * 2 / core::kb::families().size(); ++i)
        for (const auto& f : core::kb::families()) deck.push_back(f);
    shuffle(deck, rng);
    std::size_t next = 0;
    for (std::size_t i = 0; i < kSets; ++i) {
        std::vector<TestEdit> set;
        for (std::size_t k = 0; k <= i % 3; ++k)
            set.push_back(make_edit(in.kb, deck.at(next++), rng));
        in.edit_sets.push_back(std::move(set));
    }
    return in;
}

FanoutInputs make_fanout_inputs(std::uint64_t seed) {
    Rng rng = rng_for(seed, 3);
    FanoutInputs in;
    // A family's grading cost depends mostly on its suite: scaled and
    // cold at jobs 1, interior_light costs ~170 ms, turn_signal ~26 ms,
    // the other three 4-11 ms. Each shape fixes which expensive families
    // it holds and lets the seed draw the cheap ones, so every seed
    // prices alike.
    const std::vector<std::string> cheap = {"wiper", "power_window",
                                            "central_lock"};
    in.shapes = {
        {core::kb::families(), false},
        {family_subset({"interior_light"}, cheap, 1, rng), false},
        {family_subset({"turn_signal"}, cheap, 1, rng), false},
        {family_subset({"interior_light"}, cheap, 1, rng), true},
        {family_subset({"turn_signal"}, cheap, 1, rng), true},
        {family_subset({}, cheap, 2, rng), true},
    };
    std::vector<std::size_t> cycle(in.shapes.size());
    std::iota(cycle.begin(), cycle.end(), std::size_t{0});
    for (int c = 0; c < 400; ++c) {
        shuffle(cycle, rng);
        in.rounds.insert(in.rounds.end(), cycle.begin(), cycle.end());
    }
    return in;
}

GateInputs make_gate_inputs(std::uint64_t seed) {
    Rng rng = rng_for(seed, 4);
    // Nine slots where random-TPG fault simulation dominates and three
    // where PODEM does. The seed draws the sizes of the cheap slots from
    // menus of near-equal price and fault count; the PODEM slots, which
    // set most of the price, are fixed. The five adder slots keep the
    // median inside one cost cluster. cmp sizes above ~17 bits are left
    // out: PODEM aborts swamp the run.
    const GateSlot adder = {{{"adder", 60}, {"adder", 62}, {"adder", 64}}};
    const GateSlot parity = {{{"parity", 112}, {"parity", 120}, {"parity", 128}}};
    const std::vector<GateSlot> slots = {
        adder, adder, adder, adder, adder, parity, parity, parity,
        {{{"alu", 4}, {"mux", 5}}},
        {{{"mux", 6}}},
        {{{"cmp", 14}}},
        {{{"cmp", 16}}},
    };
    GateInputs in;
    for (const auto& slot : slots) {
        const auto& [generator, size] = slot.menu[below(rng, slot.menu.size())];
        const auto name = generator + std::to_string(size);
        in.pool.push_back({name, ctk::gate::emit_bench(generate(generator, size))});
    }
    std::vector<std::size_t> cycle(in.pool.size());
    std::iota(cycle.begin(), cycle.end(), std::size_t{0});
    for (int c = 0; c < 64; ++c) {
        shuffle(cycle, rng);
        in.sequence.insert(in.sequence.end(), cycle.begin(), cycle.end());
    }
    return in;
}

std::vector<core::FamilyGradingSetup> build_setups(const KbShape& kb) {
    const auto universe = ctk::sim::UniverseOptions::scaled();
    std::vector<core::FamilyGradingSetup> setups;
    setups.reserve(kb.size());
    for (const auto& r : kb) {
        auto setup = core::kb_grading_setup(r.family, {}, universe);
        std::vector<ctk::sim::FaultSpec> faults;
        faults.reserve(r.faults.size());
        for (const auto i : r.faults) faults.push_back(setup.universe.at(i));
        setup.universe = std::move(faults);
        setup.family = r.family + "#" + std::to_string(r.copy);
        setups.push_back(std::move(setup));
    }
    return setups;
}

void apply_edits(std::vector<core::FamilyGradingSetup>& setups,
                 const std::vector<TestEdit>& edits) {
    for (const auto& e : edits) {
        auto& setup = setups.at(e.replica);
        auto& step = setup.script.tests.at(e.test).steps.at(e.step);
        if (e.kind == TestEdit::Kind::Dwell) {
            step.dt += e.amount;
        } else {
            auto& call = step.actions.at(e.action).call;
            call.max = ctk::expr::parse("(" + call.max->to_string() + ")*" +
                                        std::to_string(e.amount));
        }
        setup.plan.reset();
    }
}

std::string describe_inputs(const std::string& workload, std::uint64_t seed) {
    std::ostringstream out;
    out.precision(17);
    if (workload == "kb-cold") {
        const auto in = make_kb_cold_inputs(seed);
        for (std::size_t i = 0; i < in.pool.size(); ++i) {
            out << "kb " << i << "\n";
            describe_kb(out, in.pool[i]);
        }
    } else if (workload == "kb-edit") {
        const auto in = make_kb_edit_inputs(seed);
        describe_kb(out, in.kb);
        for (std::size_t i = 0; i < in.edit_sets.size(); ++i)
            for (const auto& e : in.edit_sets[i])
                out << "edit " << i << ": replica " << e.replica << " test "
                    << e.test << " step " << e.step
                    << (e.kind == TestEdit::Kind::Dwell ? " dwell +"
                                                        : " limit x")
                    << e.amount << " action " << e.action << "\n";
    } else if (workload == "ctkd-fanout") {
        const auto in = make_fanout_inputs(seed);
        for (const auto& s : in.shapes) {
            out << "shape " << (s.scaled ? "scaled" : "base");
            for (const auto& f : s.families) out << " " << f;
            out << "\n";
        }
        out << "rounds";
        for (const auto r : in.rounds) out << " " << r;
        out << "\nrepeats " << in.repeats << " clients " << in.clients
            << " max-entries " << in.max_entries << "\n";
    } else if (workload == "gate-grade") {
        const auto in = make_gate_inputs(seed);
        for (const auto& n : in.pool) out << "netlist " << n.name << "\n" << n.bench;
        out << "sequence";
        for (const auto s : in.sequence) out << " " << s;
        out << "\n";
    } else {
        throw std::invalid_argument("unknown workload '" + workload + "'");
    }
    return out.str();
}

} // namespace perfbench
