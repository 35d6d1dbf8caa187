// One encoding for "symbol NAME has (at least) value V" shared by every
// pipeline entry point.
//
// Its consumers — driver::ProgramInput::assumptions, pipeline::Session's
// constructor and the corpus' per-entry parameter seeding — all take this
// type: the analyzer reads it as lower bounds (assume_ge), the interpreter
// reads it as concrete scalar inputs.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace sspar::ast {
struct Program;
}
namespace sspar::core {
class Analyzer;
}
namespace sspar::interp {
class Interpreter;
}

namespace sspar::pipeline {

struct Assumption {
  std::string name;   // global / parameter symbol
  int64_t value = 1;  // lower bound for analysis, concrete value for interp
};

class Assumptions {
 public:
  Assumptions() = default;
  // Implicit on purpose: lets call sites keep writing {{"N", 1}, {"M", 2}}.
  Assumptions(std::initializer_list<std::pair<std::string, int64_t>> items);
  Assumptions(const std::vector<std::pair<std::string, int64_t>>& items);

  void add(std::string name, int64_t value);

  // Parses a CLI-style "NAME=VALUE" spec; false on malformed input.
  bool add_spec(const std::string& spec);

  // Declares every assumption to the analyzer as `name >= value`, resolving
  // names against the program's globals. Unknown names are ignored (the
  // program may simply not use that symbol).
  void apply(core::Analyzer& analyzer, const ast::Program& program) const;

  // Seeds every assumption as a concrete interpreter scalar `name = value`.
  void seed_interpreter(interp::Interpreter& interp) const;

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }
  const std::vector<Assumption>& items() const { return items_; }

 private:
  std::vector<Assumption> items_;
};

}  // namespace sspar::pipeline
