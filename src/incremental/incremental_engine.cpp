#include "incremental/incremental_engine.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <string_view>

#include "frontend/printer.h"
#include "frontend/sema.h"
#include "ipa/call_graph.h"
#include "ipa/summary.h"
#include "store/summary_store.h"
#include "symbolic/arena.h"
#include "transform/omp_emitter.h"

namespace sspar::incremental {

namespace {

// Every declaration of the function in a deterministic order: parameters
// first, then DeclStmt declarations in statement pre-order (walk_stmts
// descends into For::init, so loop-header declarations are covered). Two
// parses of an identical printed body enumerate identically.
std::vector<const ast::VarDecl*> enumerate_locals(const ast::FuncDecl& function) {
  std::vector<const ast::VarDecl*> out;
  for (const auto& param : function.params) out.push_back(param.get());
  ast::walk_stmts(static_cast<const ast::Stmt*>(function.body.get()),
                  [&](const ast::Stmt* stmt) {
                    if (const auto* decl_stmt = stmt->as<ast::DeclStmt>()) {
                      for (const auto& decl : decl_stmt->decls) out.push_back(decl.get());
                    }
                    return true;
                  });
  return out;
}

struct FuncShape {
  std::pair<uint64_t, uint64_t> content_key;
  std::pair<uint64_t, uint64_t> layout;
  // The function's name token: no node of the function precedes it, so its
  // line also starts the function's line span.
  support::SourceLocation anchor;
};

// Layout hash: every node kind + source position of the function, signature
// included, with lines and byte offsets taken relative to the function's
// name token (columns as they are). Content keys ignore positions (printed
// source only), so this is the second half of the reuse test — an unchanged
// relative layout means every cached position is still accurate once
// shifted by the function's own move (see rebase_diagnostic).
FuncShape compute_shape(const ast::FuncDecl& function,
                        const std::pair<uint64_t, uint64_t>& content_key) {
  FuncShape shape;
  shape.content_key = content_key;
  shape.anchor = function.location;
  ipa::ContentHasher h;
  auto mix_loc = [&](const support::SourceLocation& loc) {
    if (loc.line == 0) {
      h.mix(~0ull);  // unknown position: nothing to shift
      return;
    }
    h.mix((static_cast<uint64_t>(loc.line - shape.anchor.line) << 32) | loc.column);
    h.mix(static_cast<uint64_t>(loc.offset - shape.anchor.offset));
  };
  mix_loc(function.location);
  for (const auto& param : function.params) mix_loc(param->location);
  ast::walk_stmts(static_cast<const ast::Stmt*>(function.body.get()),
                  [&](const ast::Stmt* stmt) {
                    h.mix(static_cast<uint64_t>(stmt->kind));
                    mix_loc(stmt->location);
                    return true;
                  });
  ast::walk_exprs(function.body.get(), [&](const ast::Expr* expr) {
    h.mix(static_cast<uint64_t>(expr->kind));
    mix_loc(expr->location);
  });
  ipa::CacheKey key = h.key();
  shape.layout = {key.hi, key.lo};
  return shape;
}

// A cached diagnostic of a function that moved by `lines` lines and `bytes`
// bytes with its relative layout intact: shifts its position and the
// "loop at line N" text W03xx messages carry (Analyzer::warn_unanalyzable).
// Verdicts need no such step — their text carries no positions.
support::Diagnostic rebase_diagnostic(support::Diagnostic d, int64_t lines, int64_t bytes) {
  d.location.line = static_cast<uint32_t>(d.location.line + lines);
  d.location.offset = static_cast<uint32_t>(d.location.offset + bytes);
  static constexpr std::string_view kLoopAt = "loop at line ";
  if (d.code >= support::DiagCode::AnalysisLoopCall &&
      d.code <= support::DiagCode::AnalysisLoopAbruptExit &&
      d.message.compare(0, kLoopAt.size(), kLoopAt) == 0) {
    const size_t end = d.message.find_first_not_of("0123456789", kLoopAt.size());
    const std::string digits = d.message.substr(kLoopAt.size(), end - kLoopAt.size());
    if (!digits.empty()) {
      d.message.replace(kLoopAt.size(), digits.size(),
                        std::to_string(std::stoll(digits) + lines));
    }
  }
  return d;
}

}  // namespace

// Per-update analysis state, committed to the engine only after the whole
// update succeeds (an exception mid-update must not corrupt the previous
// snapshot — the server keeps sessions alive after E_INTERNAL). Member order
// matters: the arena owns every expression the summaries and analyzer
// reference, exactly as in pipeline::Session.
struct IncrementalEngine::ProgramState {
  support::DiagnosticEngine diags;
  std::unique_ptr<sym::ExprArena> arena = std::make_unique<sym::ExprArena>();
  std::unique_ptr<ipa::SummaryDB> summaries = std::make_unique<ipa::SummaryDB>();
  ast::ParseResult parsed;
  std::unique_ptr<core::Analyzer> analyzer;
};

IncrementalEngine::IncrementalEngine(EngineOptions options) : options_(std::move(options)) {
  if (options_.store != nullptr) options_.store->preload(cache_);
}

IncrementalEngine::~IncrementalEngine() = default;

const ast::Program* IncrementalEngine::program() const {
  return state_ ? state_->parsed.program.get() : nullptr;
}

void IncrementalEngine::flush_store() {
  if (options_.store == nullptr) return;
  options_.store->absorb(cache_);
  options_.store->commit();
}

UpdateResult IncrementalEngine::update(const std::string& source) {
  const auto start = std::chrono::steady_clock::now();
  UpdateResult result;

  // Retire the previous snapshot up front: every incremental byte of state
  // (function keys, cached verdicts, diagnostics, the cross-program summary
  // cache) lives outside it, and releasing the old AST/arena first lets the
  // new parse and analysis recycle that memory instead of holding two full
  // snapshots live. The result contract already limits verdict pointer
  // lifetime to the next update() call.
  state_.reset();

  auto state = std::make_unique<ProgramState>();
  state->summaries->attach_shared(&cache_);
  state->parsed = ast::parse_and_resolve(source, state->diags);
  if (!state->parsed.ok) {
    result.error = state->diags.dump();
    result.diagnostics = state->diags.diagnostics();
    support::canonicalize_diagnostics(result.diagnostics);
    return result;  // incremental state (keys, verdicts, cache) stays intact
  }
  ast::Program& program = *state->parsed.program;

  sym::ArenaScope arena_scope(*state->arena);
  state->analyzer = std::make_unique<core::Analyzer>(program, *state->parsed.symbols,
                                                     options_.analyzer, state->summaries.get(),
                                                     &state->diags);
  options_.assumptions.apply(*state->analyzer, program);
  ipa::CallGraph graph(program);
  state->analyzer->key_all_functions(graph);

  // --- Dirty-cone classification -------------------------------------------
  // A function is dirty when its content key changed or it is new. Content
  // keys fold the transitive callee closure in, so callers of dirty
  // functions are dirty by construction; removed callees flip their callers
  // the same way (the callee-key mix degrades to the unkeyed/unknown
  // marker). A function with its key but a changed relative layout (a
  // reformat inside it) re-runs too; one that merely moved stays clean.
  std::map<std::string, FuncShape> shapes;
  std::set<const ast::FuncDecl*> reanalyze;
  UpdateStats stats;
  stats.functions_total = static_cast<int>(program.functions.size());
  for (const auto& function : program.functions) {
    const std::pair<uint64_t, uint64_t>* key = state->analyzer->content_key(function.get());
    FuncShape shape = compute_shape(*function, key != nullptr ? *key : std::pair<uint64_t, uint64_t>{});
    shapes[function->name] = shape;
    auto prev = func_states_.find(function->name);
    const bool is_dirty = prev == func_states_.end() || prev->second.content_key != shape.content_key;
    const bool relaid = !is_dirty && prev->second.layout != shape.layout;
    if (is_dirty) ++stats.dirty;
    if (is_dirty || relaid) reanalyze.insert(function.get());
  }
  stats.reanalyzed = static_cast<int>(reanalyze.size());

  // --- Analysis over the cone ----------------------------------------------
  // Only summaries the cone's analysis can consult are materialized: the
  // cone functions' direct callees, recursing past a callee only when its
  // summary cannot rehydrate from the persistent cache. Every other clean
  // function's summary stays as an untouched cache entry — reuse by not
  // needing it at all.
  state->analyzer->run(&reanalyze, &graph);

  // --- Verdicts: fresh for the cone, rebound from cache elsewhere ----------
  core::Parallelizer parallelizer(*state->analyzer);
  std::vector<core::LoopVerdict> verdicts;
  std::map<std::string, std::pair<size_t, size_t>> verdict_spans;  // name -> [begin, end)
  for (const auto& function : program.functions) {
    const size_t begin = verdicts.size();
    if (reanalyze.count(function.get()) != 0) {
      auto fresh = parallelizer.analyze_all(*function);
      verdicts.insert(verdicts.end(), fresh.begin(), fresh.end());
    } else {
      const FuncState& prev = func_states_.at(function->name);
      std::vector<const ast::For*> loops =
          ast::collect_loops(static_cast<const ast::Stmt*>(function->body.get()));
      std::vector<const ast::VarDecl*> locals = enumerate_locals(*function);
      for (const CachedVerdict& cached : *prev.verdicts) {
        core::LoopVerdict v = cached.verdict;
        const ast::For* loop = loops.at(cached.loop_ordinal);
        v.loop = loop;
        v.loop_id = loop->loop_id;
        for (const PrivateRef& ref : cached.privates) {
          v.privates.push_back(ref.global ? program.find_global(ref.name)
                                          : locals.at(ref.ordinal));
        }
        verdicts.push_back(std::move(v));
        ++stats.reused_verdicts;
      }
    }
    verdict_spans[function->name] = {begin, verdicts.size()};
  }

  // --- Diagnostics: fresh from the cone + cached buckets for clean code ----
  std::vector<support::Diagnostic> diags = state->diags.diagnostics();
  for (const auto& function : program.functions) {
    if (reanalyze.count(function.get()) != 0) continue;
    const FuncState& prev = func_states_.at(function->name);
    const support::SourceLocation& now = shapes.at(function->name).anchor;
    const int64_t lines = static_cast<int64_t>(now.line) - prev.anchor.line;
    const int64_t bytes = static_cast<int64_t>(now.offset) - prev.anchor.offset;
    for (const support::Diagnostic& d : prev.diags) {
      diags.push_back(lines == 0 && bytes == 0 ? d : rebase_diagnostic(d, lines, bytes));
    }
  }
  support::canonicalize_diagnostics(diags);

  // Delta vs. the previous successful update (both lists canonical).
  {
    size_t i = 0, j = 0;
    while (i < last_diags_.size() || j < diags.size()) {
      if (i == last_diags_.size()) {
        result.delta.added.push_back(diags[j++]);
      } else if (j == diags.size()) {
        result.delta.removed.push_back(last_diags_[i++]);
      } else if (last_diags_[i] == diags[j]) {
        ++result.delta.unchanged;
        ++i;
        ++j;
      } else if (support::diag_canonical_less(last_diags_[i], diags[j])) {
        result.delta.removed.push_back(last_diags_[i++]);
      } else {
        result.delta.added.push_back(diags[j++]);
      }
    }
  }

  // --- Annotate + emit ------------------------------------------------------
  result.annotated = transform::annotate_parallel_loops(program, verdicts);
  result.output = ast::print_program(program);

  // --- Harvest the new snapshot --------------------------------------------
  // Diagnostics are attributed to functions by source-line span: every W03xx
  // anchors inside the function being flowed (call sites anchor in the
  // caller), and functions occupy disjoint line ranges in source order.
  std::vector<std::pair<uint32_t, const ast::FuncDecl*>> span_index;
  for (const auto& function : program.functions) {
    span_index.emplace_back(shapes.at(function->name).anchor.line, function.get());
  }
  std::sort(span_index.begin(), span_index.end());
  auto owner_of = [&](uint32_t line) -> const ast::FuncDecl* {
    if (span_index.empty()) return nullptr;
    auto it = std::upper_bound(
        span_index.begin(), span_index.end(), line,
        [](uint32_t l, const auto& entry) { return l < entry.first; });
    return it == span_index.begin() ? span_index.front().second : std::prev(it)->second;
  };
  std::map<std::string, std::vector<support::Diagnostic>> diag_buckets;
  for (const support::Diagnostic& d : diags) {
    if (const ast::FuncDecl* owner = owner_of(d.location.line)) {
      diag_buckets[owner->name].push_back(d);
    }
  }

  std::map<std::string, FuncState> next_states;
  for (const auto& function : program.functions) {
    FuncState fs;
    const FuncShape& shape = shapes.at(function->name);
    fs.content_key = shape.content_key;
    fs.layout = shape.layout;
    fs.anchor = shape.anchor;
    fs.diags = std::move(diag_buckets[function->name]);
    if (reanalyze.count(function.get()) != 0) {
      // Strip AST pointers from the fresh verdicts so they survive the next
      // re-parse.
      std::vector<const ast::For*> loops =
          ast::collect_loops(static_cast<const ast::Stmt*>(function->body.get()));
      std::vector<const ast::VarDecl*> locals = enumerate_locals(*function);
      std::map<const ast::VarDecl*, size_t> local_ordinals;
      for (size_t k = 0; k < locals.size(); ++k) local_ordinals[locals[k]] = k;
      const auto [begin, end] = verdict_spans.at(function->name);
      std::vector<CachedVerdict> stripped;
      stripped.reserve(end - begin);
      for (size_t k = begin; k < end; ++k) {
        CachedVerdict cached;
        cached.verdict = verdicts[k];
        auto loop_it = std::find(loops.begin(), loops.end(), verdicts[k].loop);
        cached.loop_ordinal = static_cast<size_t>(loop_it - loops.begin());
        for (const ast::VarDecl* priv : verdicts[k].privates) {
          PrivateRef ref;
          auto ord = local_ordinals.find(priv);
          if (ord != local_ordinals.end()) {
            ref.ordinal = ord->second;
          } else {
            ref.global = true;
            ref.name = priv->name;
          }
          cached.privates.push_back(std::move(ref));
        }
        cached.verdict.loop = nullptr;
        cached.verdict.privates.clear();
        stripped.push_back(std::move(cached));
      }
      fs.verdicts =
          std::make_shared<const std::vector<CachedVerdict>>(std::move(stripped));
    } else {
      // Shared, not copied: the cached vector is immutable, so a clean
      // function's verdicts ride through any number of updates for free.
      fs.verdicts = func_states_.at(function->name).verdicts;
    }
    next_states[function->name] = std::move(fs);
  }

  // --- Commit ---------------------------------------------------------------
  stats.reused_summaries = static_cast<int>(state->summaries->stats().shared_hits);
  stats.update_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  func_states_ = std::move(next_states);
  last_diags_ = diags;
  state_ = std::move(state);
  totals_.add(stats);

  result.ok = true;
  result.verdicts = std::move(verdicts);
  result.diagnostics = std::move(diags);
  result.stats = stats;
  return result;
}

}  // namespace sspar::incremental
