#include "transform/omp_emitter.h"

#include <functional>
#include <map>
#include <set>

#include "frontend/printer.h"
#include "frontend/sema.h"
#include "support/diagnostics.h"
#include "support/text.h"

namespace sspar::transform {

namespace {

std::string build_pragma(const core::LoopVerdict& v) {
  std::string pragma = "#pragma omp parallel for";
  if (!v.privates.empty()) {
    pragma += " private(";
    for (size_t i = 0; i < v.privates.size(); ++i) {
      if (i) pragma += ", ";
      pragma += v.privates[i]->name;
    }
    pragma += ")";
  }
  return pragma;
}

// The sspar::rt runtime check call guarding a hybrid dual-version loop. The
// re-parsed call stays unbound (the frontend leaves unknown callees opaque),
// and the interpreter handles these names as intrinsics.
std::string build_hybrid_check(const core::LoopVerdict& v) {
  switch (v.hybrid_property) {
    case core::EnablingProperty::Monotonic:
      return support::format("sspar_check_nondecreasing(%s, %s, %s)",
                             v.hybrid_index_array.c_str(), v.hybrid_check_lo.c_str(),
                             v.hybrid_check_hi.c_str());
    case core::EnablingProperty::Injective:
      return support::format("sspar_check_injective(%s, %s, %s)",
                             v.hybrid_index_array.c_str(), v.hybrid_check_lo.c_str(),
                             v.hybrid_check_hi.c_str());
    case core::EnablingProperty::SubsetInjective:
      return support::format("sspar_check_subset_injective(%s, %s, %s, %lld)",
                             v.hybrid_index_array.c_str(), v.hybrid_check_lo.c_str(),
                             v.hybrid_check_hi.c_str(), (long long)v.hybrid_min_value);
    default:
      return {};
  }
}

}  // namespace

namespace {

using VerdictByLoop = std::map<const ast::For*, const core::LoopVerdict*>;

VerdictByLoop index_verdicts(std::span<const core::LoopVerdict> verdicts) {
  VerdictByLoop by_loop;
  // Duplicate verdicts for the same loop resolve deterministically: a
  // parallel verdict beats a hybrid one beats a serial one; ties keep the
  // first verdict seen, independent of input order beyond that.
  auto rank = [](const core::LoopVerdict* v) { return v->parallel ? 2 : (v->hybrid ? 1 : 0); };
  for (const auto& v : verdicts) {
    auto [it, inserted] = by_loop.emplace(v.loop, &v);
    if (!inserted && rank(&v) > rank(it->second)) it->second = &v;
  }
  return by_loop;
}

int annotate_function(ast::FuncDecl& function, const VerdictByLoop& by_loop) {
  int annotated = 0;
  // Pre-order walk; skip subtrees of annotated loops so only the outermost
  // parallel loop of each nest gets the pragma.
  std::function<void(ast::Stmt*)> visit = [&](ast::Stmt* stmt) {
    if (!stmt) return;
    if (auto* loop = stmt->as<ast::For>()) {
      auto found = by_loop.find(loop);
      const core::LoopVerdict* v = found == by_loop.end() ? nullptr : found->second;
      if (v && v->parallel) {
        loop->annotations.push_back(build_pragma(*v));
        loop->annotations.push_back("// sspar: " + v->reason);
        if (v->schedule != core::LoopVerdict::ScheduleHint::None) {
          const char* kind =
              v->schedule == core::LoopVerdict::ScheduleHint::Static ? "static" : "dynamic";
          loop->annotations.push_back(support::format("// sspar: schedule(%s) — %s", kind,
                                                      v->schedule_reason.c_str()));
        }
        ++annotated;
        return;  // don't annotate nested loops
      }
      if (v && v->hybrid) {
        std::string check = build_hybrid_check(*v);
        if (!check.empty()) {
          loop->annotations.push_back(support::format(
              "// sspar: hybrid — %s of '%s' verified at runtime",
              core::property_name(v->hybrid_property), v->hybrid_index_array.c_str()));
          loop->hybrid_check = check;
          loop->hybrid_pragma = build_pragma(*v);
          return;  // the dual-version emission covers the whole nest
        }
      }
      visit(loop->body.get());
      return;
    }
    switch (stmt->kind) {
      case ast::StmtNodeKind::Compound:
        for (auto& s : stmt->as<ast::Compound>()->body) visit(s.get());
        break;
      case ast::StmtNodeKind::If: {
        auto* s = stmt->as<ast::If>();
        visit(s->then_branch.get());
        visit(s->else_branch.get());
        break;
      }
      case ast::StmtNodeKind::While:
        visit(stmt->as<ast::While>()->body.get());
        break;
      default:
        break;
    }
  };
  visit(function.body.get());
  return annotated;
}

}  // namespace

int annotate_parallel_loops(ast::Program& program,
                            const std::vector<core::LoopVerdict>& verdicts) {
  const VerdictByLoop by_loop = index_verdicts(verdicts);
  int annotated = 0;
  for (auto& function : program.functions) annotated += annotate_function(*function, by_loop);
  return annotated;
}

int annotate_parallel_loops(ast::FuncDecl& function,
                            std::span<const core::LoopVerdict> verdicts) {
  return annotate_function(function, index_verdicts(verdicts));
}

void clear_annotations(ast::Program& program) {
  for (auto& function : program.functions) clear_annotations(*function);
}

void clear_annotations(ast::FuncDecl& function) {
  // collect_loops is recursive, so this reaches nested loops too.
  for (ast::For* loop : ast::collect_loops(static_cast<ast::Stmt*>(function.body.get()))) {
    loop->annotations.clear();
    loop->hybrid_check.clear();
    loop->hybrid_pragma.clear();
  }
}

}  // namespace sspar::transform
