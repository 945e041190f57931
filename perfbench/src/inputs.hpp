// Seeded workload inputs. Everything a workload feeds the program is made
// here from --seed alone: the same seed gives byte-identical inputs
// (describe_inputs), a different seed different ones. Each workload draws
// from a fixed-size pool and cycles through it, so the oracle prices a
// bounded set of distinct inputs however many operations a run fits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/grading.hpp"

namespace perfbench {

/// One family copy of the replicated knowledge base. `faults` indexes
/// the family's scaled fault universe, in grading order (a seed-drawn
/// order and subset).
struct Replica {
    std::string family;
    std::size_t copy = 0;
    std::vector<std::size_t> faults;
};

/// The KB replicated kKbCopies times: copies x families, copy-major.
using KbShape = std::vector<Replica>;

inline constexpr std::size_t kKbCopies = 16;

struct KbColdInputs {
    std::vector<KbShape> pool; ///< op i grades pool[i % pool.size()]
};

/// One edit of a KB test: lengthen the dwell of a step, or widen the
/// upper limit of a measured check.
struct TestEdit {
    enum class Kind { Dwell, Limit };
    std::size_t replica = 0; ///< index into the KbShape
    std::size_t test = 0;
    Kind kind = Kind::Dwell;
    std::size_t step = 0;
    std::size_t action = 0; ///< Limit only
    double amount = 0.0;    ///< seconds added (Dwell), factor (Limit)
};

struct KbEditInputs {
    KbShape kb;                                 ///< baseline, graded in set-up
    std::vector<std::vector<TestEdit>> edit_sets; ///< op i applies set i % n
};

/// One ctkd request shape: a family subset (catalogue order) and a
/// universe.
struct Shape {
    std::vector<std::string> families;
    bool scaled = false;
};

struct FanoutInputs {
    std::vector<Shape> shapes;
    /// Shared shape sequence: every client's request k uses shape
    /// rounds[(k / repeats) % rounds.size()], so the clients meet on a
    /// shape at about the same time.
    std::vector<std::size_t> rounds;
    std::size_t repeats = 3;
    std::size_t clients = 4;
    std::size_t max_entries = 3; ///< ctkd --max-entries, below shapes.size()

    [[nodiscard]] std::size_t shape_for(std::size_t request) const {
        return rounds[(request / repeats) % rounds.size()];
    }
};

struct GateNetlist {
    std::string name;  ///< generator and size, e.g. "cmp16"
    std::string bench; ///< .bench text, parsed inside the operation
};

struct GateInputs {
    std::vector<GateNetlist> pool;
    std::vector<std::size_t> sequence; ///< op i grades pool[sequence[i % n]]
};

[[nodiscard]] KbColdInputs make_kb_cold_inputs(std::uint64_t seed);
[[nodiscard]] KbEditInputs make_kb_edit_inputs(std::uint64_t seed);
[[nodiscard]] FanoutInputs make_fanout_inputs(std::uint64_t seed);
[[nodiscard]] GateInputs make_gate_inputs(std::uint64_t seed);

/// kb_grading_setup for every replica under the scaled universe, renamed
/// "family#copy", fault list replaced by the replica's order/subset.
[[nodiscard]] std::vector<ctk::core::FamilyGradingSetup>
build_setups(const KbShape& kb);

/// Apply edits to setups built from the same KbShape (clears the
/// compiled plan of every edited replica so run_all recompiles it).
void apply_edits(std::vector<ctk::core::FamilyGradingSetup>& setups,
                 const std::vector<TestEdit>& edits);

/// Full text dump of a workload's generated inputs. Throws
/// std::invalid_argument for an unknown workload.
[[nodiscard]] std::string describe_inputs(const std::string& workload,
                                          std::uint64_t seed);

} // namespace perfbench
