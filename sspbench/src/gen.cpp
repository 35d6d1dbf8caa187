#include "gen.h"

#include <algorithm>
#include <cmath>

#include "support/text.h"

namespace sspbench {

using sspar::support::format;

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int Rng::uniform(int lo, int hi) {
  return lo + static_cast<int>(next() % static_cast<uint64_t>(hi - lo + 1));
}

double Rng::unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

const char* family_name(Family family) {
  switch (family) {
    case Family::Csr: return "csr";
    case Family::Perm: return "perm";
    case Family::Match: return "match";
    case Family::Affine: return "affine";
    case Family::CondRec: return "condrec";
    case Family::Hybrid: return "hybrid";
    case Family::Serial: return "serial";
  }
  return "?";
}

const char* verdict_class_name(VerdictClass cls) {
  switch (cls) {
    case VerdictClass::StaticParallel: return "static-parallel";
    case VerdictClass::Hybrid: return "hybrid";
    case VerdictClass::Serial: return "serial";
  }
  return "?";
}

const char* edit_kind_name(EditKind kind) {
  switch (kind) {
    case EditKind::Leaf: return "leaf";
    case EditKind::Mid: return "mid";
    case EditKind::LineShift: return "line-shift";
    case EditKind::SyntaxError: return "syntax-error";
  }
  return "?";
}

namespace {

// Source text with 1-based line accounting, so consumers can be located.
class Writer {
 public:
  void line(const std::string& text) {
    out_ += text;
    out_ += '\n';
    ++next_line_;
  }
  int next_line() const { return next_line_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
  int next_line_ = 1;
};

// One block's code, split the way the helper levels cut it.
struct BlockCode {
  std::vector<std::string> globals;
  std::vector<std::string> fill_a;   // first fill (may be the only one)
  std::vector<std::string> fill_b;   // second fill; empty when the family has one
  std::vector<std::string> consumer;
  size_t consumer_for = 0;           // index of the consumer's `for` line
  VerdictClass expected = VerdictClass::StaticParallel;
  bool may_improve = false;
};

BlockCode block_code(const BlockSpec& spec, int b) {
  BlockCode c;
  const int k = spec.constant;
  const int f = spec.factor;
  switch (spec.family) {
    case Family::Csr:
      c.globals = {format("int cols_%d[1024];", b), format("int nzz_%d[1024];", b),
                   format("int rowstr_%d[1025];", b), format("int colidx_%d[8192];", b)};
      c.fill_a = {"for (int i = 0; i < N; i++) {",
                  format("  nzz_%d[i] = cols_%d[i] > %d ? 2 : 1;", b, b, k), "}"};
      c.fill_b = {format("rowstr_%d[0] = 0;", b), "for (int i = 1; i < N + 1; i++) {",
                  format("  rowstr_%d[i] = rowstr_%d[i-1] + nzz_%d[i-1];", b, b, b), "}"};
      c.consumer = {"for (int j = 0; j < N; j++) {",
                    format("  for (int k = rowstr_%d[j]; k < rowstr_%d[j+1]; k++) {", b, b),
                    format("    colidx_%d[k] = colidx_%d[k] - %d;", b, b, f), "  }", "}"};
      break;
    case Family::Perm:
      c.globals = {format("int perm_%d[1024];", b), format("int inv_%d[1024];", b)};
      c.fill_a = {"for (int i = 0; i < N; i++) {", format("  perm_%d[i] = N - 1 - i;", b),
                  "}"};
      c.consumer = {"for (int i = 0; i < N; i++) {", format("  int e = perm_%d[i];", b),
                    format("  inv_%d[e] = i * %d + %d;", b, f, k), "}"};
      break;
    case Family::Match:
      c.globals = {format("int w_%d[1024];", b), format("int flag_%d[1024];", b),
                   format("int jmatch_%d[1024];", b), format("int imatch_%d[2048];", b)};
      c.fill_a = {"for (int i = 0; i < N; i++) {",
                  format("  flag_%d[i] = w_%d[i] > %d ? 1 : 0;", b, b, k), "}"};
      c.fill_b = {"for (int i = 0; i < N; i++) {", format("  if (flag_%d[i] > 0) {", b),
                  format("    jmatch_%d[i] = 2 * i;", b), "  } else {",
                  format("    jmatch_%d[i] = -1;", b), "  }", "}"};
      c.consumer = {"for (int i = 0; i < N; i++) {", format("  if (jmatch_%d[i] >= 0) {", b),
                    format("    imatch_%d[jmatch_%d[i]] = i + %d;", b, b, f), "  }", "}"};
      break;
    case Family::Affine:
      c.globals = {format("int idx_%d[1024];", b), format("double x_%d[1024];", b),
                   format("double y_%d[8192];", b)};
      c.fill_a = {"for (int i = 0; i < N; i++) {", format("  idx_%d[i] = M * i + %d;", b, k),
                  "}"};
      c.consumer = {"for (int i = 0; i < N; i++) {",
                    format("  y_%d[idx_%d[i]] = x_%d[i] * 0.%d + 1.0;", b, b, b, f), "}"};
      break;
    case Family::CondRec:
      c.globals = {format("int sz_%d[1024];", b), format("int ptr_%d[1025];", b),
                   format("double data_%d[8192];", b)};
      c.fill_a = {"for (int i = 0; i < N; i++) {",
                  format("  sz_%d[i] = (i %% %d == 0) ? 2 : 1;", b, 2 + k % 5), "}"};
      if (k % 2 == 1) {
        c.fill_b = {format("ptr_%d[0] = 0;", b), "for (int i = 1; i < N + 1; i++) {",
                    format("  ptr_%d[i] = ptr_%d[i-1] + (sz_%d[i-1] > 1 ? sz_%d[i-1] : 1);", b,
                           b, b, b),
                    "}"};
      } else {
        // The same recurrence through if/else: not proven statically today,
        // so the consumer gets a runtime monotonicity check.
        c.fill_b = {format("ptr_%d[0] = 0;", b), "for (int i = 1; i < N + 1; i++) {",
                    format("  if (sz_%d[i-1] > 1) {", b),
                    format("    ptr_%d[i] = ptr_%d[i-1] + sz_%d[i-1];", b, b, b), "  } else {",
                    format("    ptr_%d[i] = ptr_%d[i-1] + 1;", b, b), "  }", "}"};
        c.expected = VerdictClass::Hybrid;
        c.may_improve = true;
      }
      c.consumer = {"for (int i = 0; i < N; i++) {",
                    format("  for (int k = ptr_%d[i]; k < ptr_%d[i+1]; k++) {", b, b),
                    format("    data_%d[k] = data_%d[k] * 0.%d;", b, b, f), "  }", "}"};
      break;
    case Family::Hybrid:
      c.globals = {format("int pin_%d[1024];", b), format("int val_%d[1024];", b),
                   format("int out_%d[2048];", b)};
      c.fill_a = {"for (int i = 0; i < N; i++) {", format("  val_%d[i] = i + %d;", b, k), "}"};
      c.consumer = {"for (int i = 0; i < N; i++) {",
                    format("  out_%d[pin_%d[i]] = val_%d[i] * %d;", b, b, b, f), "}"};
      c.expected = VerdictClass::Hybrid;
      break;
    case Family::Serial:
      c.globals = {format("double sx_%d[1024];", b), format("double sy_%d[1024];", b)};
      c.fill_a = {"for (int i = 0; i < N; i++) {", format("  sx_%d[i] = i * 0.5 + %d;", b, k),
                  "}"};
      c.consumer = {"double s = 0.0;", "for (int i = 0; i < N; i++) {",
                    format("  s = s + sx_%d[i] * 0.%d;", b, f), format("  sy_%d[i] = s;", b),
                    "}"};
      c.consumer_for = 1;
      c.expected = VerdictClass::Serial;
      break;
  }
  return c;
}

void body(Writer& w, const std::vector<std::string>& lines) {
  for (const std::string& l : lines) w.line("  " + l);
}

constexpr int kGroup = 4;  // blocks per group, groups per super

}  // namespace

BlockSpec draw_block(Rng& rng, int index, double shared_share) {
  BlockSpec spec;
  if (rng.chance(shared_share)) {
    spec.family = static_cast<Family>(index % kFamilies);
    spec.levels = 1 + (index / kFamilies) % 3;
    spec.constant = 1 + index % 5;
    spec.factor = 1;
  } else {
    spec.family = static_cast<Family>(rng.uniform(0, kFamilies - 1));
    spec.levels = rng.uniform(1, 3);
    spec.constant = rng.uniform(1, 60);
    spec.factor = rng.uniform(1, 9);
  }
  return spec;
}

Program render_program(const std::string& name, const std::vector<BlockSpec>& blocks,
                       const std::vector<int>& prep_constants) {
  Program p;
  p.name = name;
  p.blocks = static_cast<int>(blocks.size());
  p.assumptions = {{"N", 1}, {"M", 1}};
  const bool hierarchy = !prep_constants.empty();
  const int per_super = kGroup * kGroup;

  std::vector<BlockCode> code;
  code.reserve(blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) {
    code.push_back(block_code(blocks[b], static_cast<int>(b)));
  }

  Writer w;
  w.line("int N;");
  w.line("int M;");
  for (const BlockCode& c : code) {
    for (const std::string& g : c.globals) w.line(g);
  }
  for (size_t s = 0; s < prep_constants.size(); ++s) {
    w.line(format("int pw_%zu[1024];", s));
  }
  for (size_t s = 0; s < prep_constants.size(); ++s) {
    w.line(format("void prep_%zu(void) {", s));
    body(w, {"for (int i = 0; i < N; i++) {",
             format("  pw_%zu[i] = i * %d;", s, prep_constants[s]), "}"});
    w.line("}");
  }

  for (size_t i = 0; i < blocks.size(); ++i) {
    const int b = static_cast<int>(i);
    const BlockSpec& spec = blocks[i];
    const BlockCode& c = code[i];
    if (spec.comment) w.line(format("// block %d revised", b));
    std::vector<std::string> head;  // calls at the top of blk_b
    if (hierarchy) head.push_back(format("prep_%d();", b / per_super));
    std::vector<std::string> inline_fills;
    if (spec.levels == 1) {
      inline_fills = c.fill_a;
      inline_fills.insert(inline_fills.end(), c.fill_b.begin(), c.fill_b.end());
    } else if (spec.levels == 2 || c.fill_b.empty()) {
      w.line(format("void fill_%d(void) {", b));
      body(w, c.fill_a);
      body(w, c.fill_b);
      w.line("}");
      head.push_back(format("fill_%d();", b));
    } else {
      w.line(format("void filla_%d(void) {", b));
      body(w, c.fill_a);
      w.line("}");
      w.line(format("void fillb_%d(void) {", b));
      body(w, c.fill_b);
      w.line("}");
      w.line(format("void setup_%d(void) {", b));
      w.line(format("  filla_%d();", b));
      w.line(format("  fillb_%d();", b));
      w.line("}");
      head.push_back(format("setup_%d();", b));
    }
    w.line(format("void blk_%d(void) {", b));
    body(w, head);
    body(w, inline_fills);
    for (size_t l = 0; l < c.consumer.size(); ++l) {
      if (l == c.consumer_for) {
        p.consumers.push_back(Consumer{spec.family, w.next_line(), c.expected, c.may_improve});
      }
      w.line("  " + c.consumer[l]);
    }
    w.line("}");
  }

  if (hierarchy) {
    const int n = static_cast<int>(blocks.size());
    const int groups = (n + kGroup - 1) / kGroup;
    for (int g = 0; g < groups; ++g) {
      w.line(format("void grp_%d(void) {", g));
      for (int b = g * kGroup; b < n && b < (g + 1) * kGroup; ++b) {
        w.line(format("  blk_%d();", b));
      }
      w.line("}");
    }
    const int supers = (groups + kGroup - 1) / kGroup;
    for (int s = 0; s < supers; ++s) {
      w.line(format("void sup_%d(void) {", s));
      for (int g = s * kGroup; g < groups && g < (s + 1) * kGroup; ++g) {
        w.line(format("  grp_%d();", g));
      }
      w.line("}");
    }
    w.line("void f(void) {");
    for (int s = 0; s < supers; ++s) w.line(format("  sup_%d();", s));
    w.line("}");
  } else {
    w.line("void f(void) {");
    for (size_t b = 0; b < blocks.size(); ++b) w.line(format("  blk_%zu();", b));
    w.line("}");
  }
  p.source = w.take();
  return p;
}

Program generate_program(uint64_t seed, const std::string& name, int stratum, int strata) {
  Rng rng(seed);
  const double x = (stratum + rng.unit()) / strata;
  const int blocks = std::clamp(static_cast<int>(std::lround(std::pow(64.0, x))), 1, 64);
  std::vector<BlockSpec> specs;
  specs.reserve(blocks);
  // The 40% shared-block share is an assumption, not measured on any real
  // codebase: enough shared helpers that the cross-program cache serves some
  // lookups, few enough that most summaries are computed (cache inserts).
  for (int b = 0; b < blocks; ++b) specs.push_back(draw_block(rng, b, 0.4));
  return render_program(name, specs);
}

std::vector<Program> generate_batch(uint64_t seed, int programs) {
  Rng rng(seed);
  std::vector<int> order(programs);
  for (int i = 0; i < programs; ++i) order[i] = i;
  for (int i = programs - 1; i > 0; --i) std::swap(order[i], order[rng.uniform(0, i)]);
  std::vector<Program> batch;
  batch.reserve(programs);
  for (int i = 0; i < programs; ++i) {
    batch.push_back(generate_program(rng.next(), format("prog%02d", i), order[i], programs));
  }
  return batch;
}

EditStream::EditStream(uint64_t seed, int blocks) : rng_(seed) {
  // Every family at every helper depth equally often, in seeded positions,
  // so the program's analysis cost does not hinge on a lucky family mix.
  specs_.reserve(blocks);
  for (int b = 0; b < blocks; ++b) {
    BlockSpec spec = draw_block(rng_, b, 0.0);
    spec.family = static_cast<Family>(b % kFamilies);
    spec.levels = 1 + (b / kFamilies) % 3;
    specs_.push_back(spec);
  }
  for (int b = blocks - 1; b > 0; --b) std::swap(specs_[b], specs_[rng_.uniform(0, b)]);
  const int supers = (blocks + kGroup * kGroup - 1) / (kGroup * kGroup);
  for (int s = 0; s < supers; ++s) prep_.push_back(1 + s % 9);
  Program base = render_program("edit", specs_, prep_);
  assumptions_ = base.assumptions;
  base_ = base.source;
  base_consumers_ = base.consumers;
  current_ = base_;
}

Version EditStream::next() {
  // An assumed mix, not one taken from a recorded editor trace: it follows
  // "mostly leaf edits, some mid-level and line-shift edits, a rare syntax
  // error". The mix decides what the latency percentiles mean. Line-shift
  // updates are the slowest class (every relocated function re-runs), and
  // at 5 of 32 edits the p90 falls inside it; mid edits sit just above
  // leaf edits. A different kShifts moves p90 to another class.
  constexpr int kLeaves = 22, kMids = 4, kShifts = 5, kErrors = 1;
  if (round_pos_ == round_.size()) {
    round_.assign(kLeaves, EditKind::Leaf);
    round_.insert(round_.end(), kMids, EditKind::Mid);
    round_.insert(round_.end(), kShifts, EditKind::LineShift);
    round_.insert(round_.end(), kErrors, EditKind::SyntaxError);
    for (size_t i = round_.size() - 1; i > 0; --i) {
      std::swap(round_[i], round_[rng_.uniform(0, static_cast<int>(i))]);
    }
    round_pos_ = 0;
    shift_index_ = 0;
  }
  const EditKind kind = round_[round_pos_++];
  const int blocks = static_cast<int>(specs_.size());
  switch (kind) {
    case EditKind::Leaf: {
      BlockSpec& s = specs_[rng_.uniform(0, blocks - 1)];
      s.factor = 1 + (s.factor + rng_.uniform(0, 7)) % 9;  // any other of 1..9
      break;
    }
    case EditKind::Mid: {
      // Super groups take turns, so every round edits the same number of
      // blocks' helpers.
      int& k = prep_[mid_index_++ % prep_.size()];
      k = 1 + (k + rng_.uniform(0, 7)) % 9;
      break;
    }
    case EditKind::LineShift: {
      // Spread evenly over the program: a shift near the top relocates every
      // function below it, one near the end almost none.
      const double at = (shift_index_++ + rng_.unit()) / kShifts;
      BlockSpec& s = specs_[std::min(blocks - 1, static_cast<int>(at * blocks))];
      s.comment = !s.comment;
      break;
    }
    case EditKind::SyntaxError: {
      // A half-typed statement at the top of a block's body. (Between two
      // functions the same text sends today's parser into unbounded
      // allocation, so the stream keeps to the case it survives.)
      std::string text = current_;
      const std::string head = format("void blk_%d(void) {\n", rng_.uniform(0, blocks - 1));
      text.insert(text.find(head) + head.size(), "  for (int z = 0; z <\n");
      return Version{kind, std::move(text), false};
    }
  }
  current_ = render_program("edit", specs_, prep_).source;
  return Version{kind, current_, true};
}

}  // namespace sspbench
