// Seeded mini-C program generator shared by the batch-cold and edit-stream
// workloads.
//
// A program is a list of blocks. Each block instantiates one pattern family
// (a fill of an index array plus the loop that consumes it) at a call depth
// of one to three helper levels, and a root f() calls every block. The same
// seed always yields byte-identical sources.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sspbench {

// splitmix64: small, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  // Uniform integer in [lo, hi].
  int uniform(int lo, int hi);
  // Uniform double in [0, 1).
  double unit();
  bool chance(double p) { return unit() < p; }

 private:
  uint64_t state_;
};

// Pattern families. Why each is in the mix:
enum class Family {
  // CSR row pointer built by a prefix sum over a bounded count array, then a
  // rowstr[j]..rowstr[j+1] segment loop (Figs. 3/9, NPB CG): the paper's
  // central monotonic-fill proof and the extended Range Test.
  Csr,
  // Reversal permutation perm[i] = N-1-i feeding inv[perm[i]] (Figs. 2/6):
  // injectivity of a filled index array.
  Perm,
  // Guarded scatter imatch[jmatch[i]] through a matching array whose
  // non-negative entries are 2*i (Fig. 5): the subset-injective proof.
  Match,
  // idx[i] = M*i + c with symbolic stride M >= 1 (corpus rec_affine_stride):
  // the recurrence-chain affine-injective proof.
  Affine,
  // ptr[i] = ptr[i-1] + (cond ? size : 1), a conditional recurrence, then a
  // segment walk: monotonicity through a conditional increment. Half the
  // blocks spell it with if/else, which is proven only at run time today.
  CondRec,
  // Scatter through an index array that no fill code produces (an input):
  // statically unprovable, so the loop becomes a hybrid runtime-checked one.
  Hybrid,
  // s = s + x[i]; y[i] = s: a scalar-carried dependence that must stay
  // serial — the analyzer has to give up cleanly, not prove it.
  Serial,
};
constexpr int kFamilies = 7;
const char* family_name(Family family);

enum class VerdictClass { StaticParallel, Hybrid, Serial };
const char* verdict_class_name(VerdictClass cls);

// The loop a block exists for, located by the source line of its `for`.
struct Consumer {
  Family family = Family::Csr;
  int line = 0;
  VerdictClass expected = VerdictClass::StaticParallel;
  // A known precision gap: a static-parallel verdict would be a sound
  // improvement over `expected`, not a regression.
  bool may_improve = false;
};

struct Program {
  std::string name;
  std::string source;
  std::vector<std::pair<std::string, int64_t>> assumptions;  // NAME >= value
  std::vector<Consumer> consumers;
  int blocks = 0;
};

// One block of a program.
struct BlockSpec {
  Family family = Family::Csr;
  int levels = 1;     // helper depth: 1 inline, 2 one fill helper, 3 split fills
  int constant = 1;   // varies the fill and consumer bodies
  int factor = 0;     // consumer scaling constant (leaf-body edits change it)
  bool comment = false;  // a comment line above the block (line-shift edits)
};

// Draws a block. With probability `shared_share` the block is a fixed
// function of its index, so programs that share it have byte-identical
// helpers over identical globals and the cross-program summary cache
// serves them.
BlockSpec draw_block(Rng& rng, int index, double shared_share);

// Renders blocks into one program whose f() calls every block. Non-empty
// `prep_constants` (one per super group) instead give the three-level
// f -> super -> group -> block call hierarchy (groups of four blocks, four
// groups per super) and one prep helper per super that every block under
// it calls.
Program render_program(const std::string& name, const std::vector<BlockSpec>& blocks,
                       const std::vector<int>& prep_constants = {});

// A batch program: block count drawn from `stratum` of `strata` equal slices
// of the log-uniform distribution on [1, 64], so every batch spans the whole
// size range while each size stays seeded.
Program generate_program(uint64_t seed, const std::string& name, int stratum, int strata);

// `programs` programs, one per stratum, in a seeded order.
std::vector<Program> generate_batch(uint64_t seed, int programs);

// ---------------------------------------------------------------------------
// Edit stream
// ---------------------------------------------------------------------------

enum class EditKind { Leaf, Mid, LineShift, SyntaxError };
const char* edit_kind_name(EditKind kind);

struct Version {
  EditKind kind = EditKind::Leaf;  // the edit that produced this version
  std::string source;
  bool parses = true;  // false for a syntax-error version
};

// An endless seeded stream of edits to one large program with the
// three-level call hierarchy. Edits come in rounds of 32 with a fixed mix
// in seeded order: 22 leaf-body edits (small dirty cone), 4 edits of a
// super group's prep helper (every block under it is dirty), 5 comment
// lines toggled above a block (every function below it relocates), and one
// half-typed statement (a syntax error the session must survive; the next
// edit applies to the last version that parsed).
class EditStream {
 public:
  EditStream(uint64_t seed, int blocks);  // `blocks`: a multiple of 16

  const std::vector<std::pair<std::string, int64_t>>& assumptions() const {
    return assumptions_;
  }
  const std::string& base() const { return base_; }
  const std::vector<Consumer>& base_consumers() const { return base_consumers_; }

  Version next();

 private:
  Rng rng_;
  std::vector<BlockSpec> specs_;
  std::vector<int> prep_;  // one constant per super group
  std::vector<std::pair<std::string, int64_t>> assumptions_;
  std::string base_;
  std::vector<Consumer> base_consumers_;
  std::string current_;  // the last version that parses
  std::vector<EditKind> round_;
  size_t round_pos_ = 0;
  int shift_index_ = 0;
  int mid_index_ = 0;
};

}  // namespace sspbench
