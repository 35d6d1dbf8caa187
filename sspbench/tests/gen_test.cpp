// Tests of the benchmark's program generator: determinism, and that every
// family's consumer loop gets the verdict class the family exists for.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "gen.h"
#include "pipeline/session.h"

using namespace sspbench;
using sspar::core::EnablingProperty;
using sspar::core::LoopVerdict;

namespace {

VerdictClass classify(const LoopVerdict& v) {
  if (v.parallel) return VerdictClass::StaticParallel;
  return v.hybrid ? VerdictClass::Hybrid : VerdictClass::Serial;
}

// The enabling properties a static-parallel consumer of each family may use.
std::set<EnablingProperty> allowed_properties(Family family) {
  switch (family) {
    case Family::Csr:
    case Family::CondRec:
      return {EnablingProperty::Monotonic};
    case Family::Perm:
      return {EnablingProperty::Monotonic, EnablingProperty::Injective};
    case Family::Match:
      return {EnablingProperty::SubsetInjective};
    case Family::Affine:
      return {EnablingProperty::AffineInjective};
    case Family::Hybrid:
    case Family::Serial:
      return {};
  }
  return {};
}

// Analyzes `source` and checks every consumer; returns the families seen.
std::set<Family> check_program(const std::string& name, const std::string& source,
                               const std::vector<std::pair<std::string, int64_t>>& assume,
                               const std::vector<Consumer>& consumers) {
  sspar::pipeline::Session session(source, assume);
  EXPECT_TRUE(session.parse()) << name << " does not parse";
  const std::vector<LoopVerdict>* verdicts = session.parallelize();
  std::set<Family> seen;
  if (verdicts == nullptr) return seen;
  std::map<uint32_t, const LoopVerdict*> by_line;
  for (const LoopVerdict& v : *verdicts) by_line[v.loop->location.line] = &v;
  for (const Consumer& c : consumers) {
    auto it = by_line.find(static_cast<uint32_t>(c.line));
    if (it == by_line.end()) {
      ADD_FAILURE() << name << ": no loop at line " << c.line;
      continue;
    }
    const LoopVerdict& v = *it->second;
    const VerdictClass got =
        c.may_improve && v.parallel ? c.expected : classify(v);
    EXPECT_EQ(verdict_class_name(got), std::string(verdict_class_name(c.expected)))
        << name << " " << family_name(c.family) << " consumer at line " << c.line << ": "
        << v.reason << (v.blockers.empty() ? "" : " / " + v.blockers.front());
    if (v.parallel) {
      EXPECT_TRUE(allowed_properties(c.family).count(v.property))
          << name << " " << family_name(c.family) << " consumer at line " << c.line
          << " proven via " << sspar::core::property_name(v.property);
    }
    seen.insert(c.family);
  }
  return seen;
}

}  // namespace

TEST(Generator, SameSeedSameBytes) {
  std::vector<Program> a = generate_batch(42, 16);
  std::vector<Program> b = generate_batch(42, 16);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].source, b[i].source);
  }
  std::vector<Program> c = generate_batch(43, 16);
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i) differs |= a[i].source != c[i].source;
  EXPECT_TRUE(differs);

  EditStream s1(7, 32), s2(7, 32);
  EXPECT_EQ(s1.base(), s2.base());
  for (int i = 0; i < 40; ++i) {
    Version a = s1.next(), b = s2.next();
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.kind, b.kind);
  }
}

TEST(Generator, BatchSizesSpanTheRange) {
  std::vector<Program> batch = generate_batch(5, 16);
  int smallest = 64, largest = 0;
  for (const Program& p : batch) {
    smallest = std::min(smallest, p.blocks);
    largest = std::max(largest, p.blocks);
  }
  EXPECT_LE(smallest, 2);
  EXPECT_GE(largest, 45);
}

TEST(Generator, ConsumersGetTheirVerdictClass) {
  std::set<Family> seen;
  for (uint64_t seed : {1, 2, 3}) {
    for (const Program& p : generate_batch(seed, 16)) {
      std::set<Family> s = check_program(p.name, p.source, p.assumptions, p.consumers);
      seen.insert(s.begin(), s.end());
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kFamilies));
}

TEST(Generator, EditStreamVersionsParseExceptSyntaxErrors) {
  EditStream stream(11, 32);
  std::map<EditKind, int> kinds;
  std::string previous = stream.base();
  for (int i = 0; i < 64; ++i) {
    Version v = stream.next();
    ++kinds[v.kind];
    EXPECT_NE(v.source, previous) << "edit " << i << " changed nothing";
    if (v.parses) previous = v.source;
    sspar::pipeline::Session session(v.source, stream.assumptions());
    EXPECT_EQ(session.parse(), v.parses) << edit_kind_name(v.kind);
    EXPECT_EQ(v.parses, v.kind != EditKind::SyntaxError);
  }
  // Two rounds of the fixed mix.
  EXPECT_EQ(kinds[EditKind::Leaf], 44);
  EXPECT_EQ(kinds[EditKind::Mid], 8);
  EXPECT_EQ(kinds[EditKind::LineShift], 10);
  EXPECT_EQ(kinds[EditKind::SyntaxError], 2);
}

TEST(Generator, EditStreamBaseConsumers) {
  // The call hierarchy and the shared prep helpers must not change verdicts.
  EditStream stream(3, 64);
  std::set<Family> seen =
      check_program("edit-base", stream.base(), stream.assumptions(), stream.base_consumers());
  EXPECT_EQ(seen.size(), static_cast<size_t>(kFamilies));
}
