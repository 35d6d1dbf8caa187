#include "incremental/incremental_engine.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <span>
#include <string_view>
#include <unordered_map>

#include "frontend/parser.h"
#include "frontend/printer.h"
#include "frontend/sema.h"
#include "ipa/call_graph.h"
#include "ipa/summary.h"
#include "store/summary_store.h"
#include "support/faultpoint.h"
#include "symbolic/arena.h"
#include "transform/omp_emitter.h"

namespace sspar::incremental {

namespace {

using Hash = std::pair<uint64_t, uint64_t>;

// Layout hash: every node kind + source position of the function, signature
// included, with lines and byte offsets taken relative to the function's
// name token (columns as they are). Content keys ignore positions (printed
// source only), so this is the second half of the reuse test for a function
// parsed anew — a reused chunk keeps its layout by construction.
Hash compute_layout(const ast::FuncDecl& function) {
  const support::SourceLocation anchor = function.location;
  ipa::ContentHasher h;
  auto mix_loc = [&](const support::SourceLocation& loc) {
    if (loc.line == 0) {
      h.mix(~0ull);  // unknown position: nothing to shift
      return;
    }
    h.mix((static_cast<uint64_t>(loc.line - anchor.line) << 32) | loc.column);
    h.mix(static_cast<uint64_t>(loc.offset - anchor.offset));
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
  const ipa::CacheKey key = h.key();
  return {key.hi, key.lo};
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
// update succeeds. Member order matters: the arena owns every expression the
// summaries and analyzer reference, exactly as in pipeline::Session.
struct IncrementalEngine::ProgramState {
  support::DiagnosticEngine diags;
  std::unique_ptr<sym::ExprArena> arena = std::make_unique<sym::ExprArena>();
  std::unique_ptr<ipa::SummaryDB> summaries = std::make_unique<ipa::SummaryDB>();
  ast::ParseResult parsed;
  std::unique_ptr<core::Analyzer> analyzer;

  // Frees this version's analysis, in destruction order, and keeps its AST:
  // the part the next version reuses.
  void release_analysis() {
    analyzer.reset();
    summaries.reset();
    arena.reset();
  }
};

struct IncrementalEngine::Splice {
  // A reused chunk: its declarations sit at `first` of the new program,
  // moved by `lines` and `bytes`.
  struct Move {
    size_t old_chunk = 0;
    size_t first = 0;
    int64_t lines = 0;
    int64_t bytes = 0;
  };
  std::vector<Move> moves;
  // Per function of the new program: its index in the previous version, or
  // -1 when it was parsed anew.
  std::vector<int> reused_from;
  std::vector<Chunk> chunks;  // the new version's chunks
  // False when the globals are the previous version's objects, in order.
  bool globals_changed = true;
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

bool IncrementalEngine::splice_program(const std::string& source,
                                       const std::vector<SourceChunk>& spans,
                                       ProgramState& state, Splice& splice) {
  const std::string_view text(source);
  const std::string_view old_text(source_);
  auto bytes_of = [](std::string_view buffer, const SourceChunk& c) {
    return buffer.substr(c.begin, c.end - c.begin);
  };

  // Match every new chunk against an unused old chunk with the same bytes
  // and start column (so the same relative layout); parse the rest alone.
  std::unordered_multimap<std::string_view, size_t> old_by_bytes;
  old_by_bytes.reserve(chunks_.size());
  for (size_t j = 0; j < chunks_.size(); ++j) {
    old_by_bytes.emplace(bytes_of(old_text, chunks_[j].span), j);
  }
  std::vector<bool> taken(chunks_.size(), false);
  std::vector<std::optional<size_t>> match(spans.size());
  std::vector<std::unique_ptr<ast::Program>> pieces(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto [it, last] = old_by_bytes.equal_range(bytes_of(text, spans[i]));
    for (; it != last && !match[i]; ++it) {
      if (!taken[it->second] &&
          chunks_[it->second].span.start.column == spans[i].start.column) {
        taken[it->second] = true;
        match[i] = it->second;
      }
    }
    if (match[i]) continue;
    support::DiagnosticEngine diags;
    ast::Parser parser(text.substr(0, spans[i].end), diags, spans[i].start);
    auto piece = std::make_unique<ast::Program>();
    parser.parse_top_level(*piece);
    // Without errors the piece holds one function or one declaration's
    // globals; every token of the chunk must belong to it.
    if (diags.has_errors() || !parser.at_end()) return false;
    pieces[i] = std::move(piece);
  }

  // Assemble. From here on the old program lends its reused declarations.
  ast::Program& old = *state_->parsed.program;
  std::vector<size_t> old_global_chunks;  // the old globals, chunk by chunk
  for (size_t j = 0; j < chunks_.size(); ++j) {
    if (!chunks_[j].function) old_global_chunks.push_back(j);
  }
  size_t globals_seen = 0;
  bool globals_changed = false;
  auto program = std::make_unique<ast::Program>();
  for (size_t i = 0; i < spans.size(); ++i) {
    Chunk chunk;
    chunk.span = spans[i];
    if (match[i]) {
      const Chunk& from = chunks_[*match[i]];
      const int64_t lines = static_cast<int64_t>(spans[i].start.line) - from.span.start.line;
      const int64_t bytes = static_cast<int64_t>(spans[i].begin) - from.span.begin;
      chunk.function = from.function;
      chunk.count = from.count;
      if (from.function) {
        chunk.first = program->functions.size();
        std::unique_ptr<ast::FuncDecl>& f = old.functions[from.first];
        if (lines != 0 || bytes != 0) ast::shift_locations(*f, lines, bytes);
        program->functions.push_back(std::move(f));
        splice.reused_from.push_back(static_cast<int>(from.first));
      } else {
        chunk.first = program->globals.size();
        for (size_t k = 0; k < from.count; ++k) {
          std::unique_ptr<ast::VarDecl>& g = old.globals[from.first + k];
          if (lines != 0 || bytes != 0) ast::shift_locations(*g, lines, bytes);
          program->globals.push_back(std::move(g));
        }
        if (globals_seen == old_global_chunks.size() ||
            old_global_chunks[globals_seen] != *match[i]) {
          globals_changed = true;
        }
        ++globals_seen;
      }
      splice.moves.push_back({*match[i], chunk.first, lines, bytes});
    } else {
      ast::Program& piece = *pieces[i];
      chunk.function = !piece.functions.empty();
      if (chunk.function) {
        chunk.first = program->functions.size();
        chunk.count = 1;
        program->functions.push_back(std::move(piece.functions.front()));
        splice.reused_from.push_back(-1);
      } else {
        chunk.first = program->globals.size();
        chunk.count = piece.globals.size();
        for (auto& g : piece.globals) program->globals.push_back(std::move(g));
        globals_changed = true;
      }
    }
    splice.chunks.push_back(chunk);
  }
  if (globals_seen != old_global_chunks.size()) globals_changed = true;

  // Resolve the whole spliced program from scratch: symbol ids, bindings and
  // loop ids then equal a cold parse's by construction.
  auto symbols = std::make_shared<sym::SymbolTable>();
  if (!ast::resolve(*program, *symbols, state.diags)) {
    // Hand every reused declaration back, unmoved, and re-resolve the old
    // program (a fresh table reproduces its ids), so it is the last good
    // version again.
    for (const Splice::Move& move : splice.moves) {
      const Chunk& from = chunks_[move.old_chunk];
      if (from.function) {
        std::unique_ptr<ast::FuncDecl>& f = program->functions[move.first];
        ast::shift_locations(*f, -move.lines, -move.bytes);
        old.functions[from.first] = std::move(f);
      } else {
        for (size_t k = 0; k < from.count; ++k) {
          std::unique_ptr<ast::VarDecl>& g = program->globals[move.first + k];
          ast::shift_locations(*g, -move.lines, -move.bytes);
          old.globals[from.first + k] = std::move(g);
        }
      }
    }
    auto old_symbols = std::make_shared<sym::SymbolTable>();
    support::DiagnosticEngine ignored;
    ast::resolve(old, *old_symbols, ignored);
    state_->parsed.symbols = std::move(old_symbols);
    return false;
  }
  state.parsed.program = std::move(program);
  state.parsed.symbols = std::move(symbols);
  state.parsed.ok = true;
  splice.globals_changed = globals_changed;
  return true;
}

std::vector<IncrementalEngine::Chunk> IncrementalEngine::map_chunks(
    const ast::Program& program, const std::vector<SourceChunk>& spans) {
  auto inside = [](const support::SourceLocation& loc, const SourceChunk& span) {
    return loc.offset >= span.begin && loc.offset < span.end;
  };
  std::vector<Chunk> chunks;
  size_t f = 0, g = 0;
  for (const SourceChunk& span : spans) {
    Chunk chunk;
    chunk.span = span;
    if (f < program.functions.size() && inside(program.functions[f]->location, span)) {
      chunk.function = true;
      chunk.first = f++;
      chunk.count = 1;
    } else {
      chunk.first = g;
      while (g < program.globals.size() && inside(program.globals[g]->location, span)) ++g;
      chunk.count = g - chunk.first;
      if (chunk.count == 0) return {};
    }
    chunks.push_back(chunk);
  }
  if (f != program.functions.size() || g != program.globals.size()) return {};
  return chunks;
}

UpdateResult IncrementalEngine::update(const std::string& source) {
  try {
    return apply(source);
  } catch (...) {
    // The update may have failed with declarations halfway between the old
    // and the new program, so neither is whole: drop everything that points
    // into them. The next update parses and analyzes the whole file, as the
    // first one did; the summary cache stays warm.
    funcs_.clear();
    chunks_.clear();
    source_.clear();
    globals_text_.clear();
    state_.reset();
    throw;
  }
}

UpdateResult IncrementalEngine::apply(const std::string& source) {
  const auto start = std::chrono::steady_clock::now();
  UpdateResult result;

  // Only the previous AST outlives this point: its analysis goes up front,
  // so the new analysis recycles that memory. The incremental state
  // (funcs_, the cross-program summary cache) lives outside it.
  if (state_) state_->release_analysis();
  auto fresh_state = [this] {
    auto state = std::make_unique<ProgramState>();
    state->summaries->attach_shared(&cache_);
    return state;
  };

  // --- Parse: reuse unchanged chunks, or parse the whole file --------------
  std::unique_ptr<ProgramState> state = fresh_state();
  std::vector<SourceChunk> spans;
  const bool split = split_chunks(source, spans);
  Splice splice;
  if (!split || chunks_.empty() || !splice_program(source, spans, *state, splice)) {
    // Any error takes this path too, so diagnostics are a cold parse's.
    state = fresh_state();
    state->parsed = ast::parse_and_resolve(source, state->diags);
    if (!state->parsed.ok) {
      result.error = state->diags.dump();
      result.diagnostics = state->diags.diagnostics();
      support::canonicalize_diagnostics(result.diagnostics);
      return result;  // the last good version and its state stay intact
    }
    splice = Splice{};
    splice.reused_from.assign(state->parsed.program->functions.size(), -1);
    if (split) splice.chunks = map_chunks(*state->parsed.program, spans);
  }
  // Reused declarations now live in the new program, out of the old one.
  SSPAR_FAULTPOINT("incremental.update.post_parse");
  ast::Program& program = *state->parsed.program;
  const size_t n = program.functions.size();

  sym::ArenaScope arena_scope(*state->arena);
  state->analyzer = std::make_unique<core::Analyzer>(program, *state->parsed.symbols,
                                                     options_.analyzer, state->summaries.get(),
                                                     &state->diags);
  options_.assumptions.apply(*state->analyzer, program);
  ipa::CallGraph graph(program);

  // --- Carry reused functions' state over ----------------------------------
  // A function parsed anew is dirty unless the previous version had one of
  // its name with its key; look those keys up before the states move.
  std::vector<std::optional<Hash>> prev_key(n);
  if (std::count(splice.reused_from.begin(), splice.reused_from.end(), -1) > 0) {
    std::unordered_map<std::string_view, Hash> keys_by_name;
    for (const FuncState& fs : funcs_) keys_by_name.emplace(fs.name, fs.content_key);
    for (size_t k = 0; k < n; ++k) {
      if (splice.reused_from[k] >= 0) continue;
      auto it = keys_by_name.find(program.functions[k]->name);
      if (it != keys_by_name.end()) prev_key[k] = it->second;
    }
  }
  std::vector<FuncState> next(n);
  core::IdentityHashes identities;
  for (size_t k = 0; k < n; ++k) {
    if (splice.reused_from[k] < 0) continue;
    next[k] = std::move(funcs_[splice.reused_from[k]]);
    // The identity hash mixes the shapes of referenced globals.
    if (!splice.globals_changed) identities.emplace(program.functions[k].get(), next[k].identity);
  }
  // Cached verdicts of reused functions name globals of the previous
  // version; once a global chunk changed, those rebind by name. The old
  // objects are still alive here, so their addresses are unambiguous.
  std::unordered_map<const ast::VarDecl*, const ast::VarDecl*> rebound;
  if (splice.globals_changed && !splice.moves.empty()) {
    std::unordered_map<std::string_view, const ast::VarDecl*> by_name;
    for (const auto& g : program.globals) by_name.emplace(g->name, g.get());
    for (const auto& g : state_->parsed.program->globals) {
      if (!g) continue;  // reused: the same object in the new program
      auto it = by_name.find(g->name);
      rebound.emplace(g.get(), it == by_name.end() ? nullptr : it->second);
    }
  }
  state->analyzer->key_all_functions(graph, &identities);

  // --- Dirty-cone classification -------------------------------------------
  // A function is dirty when its content key changed or it is new. Content
  // keys fold the transitive callee closure in, so callers of dirty
  // functions are dirty by construction; removed callees flip their callers
  // the same way (the callee-key mix degrades to the unkeyed/unknown
  // marker). A function parsed anew re-runs even with its old key: its
  // nodes are new. A reused function that merely moved stays clean.
  std::set<const ast::FuncDecl*> reanalyze;
  std::vector<bool> fresh(n, false);
  UpdateStats stats;
  stats.functions_total = static_cast<int>(n);
  for (size_t k = 0; k < n; ++k) {
    const ast::FuncDecl* function = program.functions[k].get();
    FuncState& fs = next[k];
    const Hash* key_ptr = state->analyzer->content_key(function);
    const Hash key = key_ptr != nullptr ? *key_ptr : Hash{};
    const bool reused = splice.reused_from[k] >= 0;
    const bool dirty = reused ? fs.content_key != key : !prev_key[k] || *prev_key[k] != key;
    bool rerun = dirty || !reused;
    if (!rerun) {
      // Clean: move its cached diagnostics along with it...
      const int64_t lines = static_cast<int64_t>(function->location.line) - fs.anchor.line;
      const int64_t bytes = static_cast<int64_t>(function->location.offset) - fs.anchor.offset;
      if (lines != 0 || bytes != 0) {
        for (support::Diagnostic& d : fs.diags) d = rebase_diagnostic(std::move(d), lines, bytes);
      }
      // ...and point its cached verdicts at the new globals.
      auto names_old_global = [&rebound](const core::LoopVerdict& v) {
        return std::any_of(v.privates.begin(), v.privates.end(),
                           [&rebound](const ast::VarDecl* p) { return rebound.count(p) > 0; });
      };
      if (!rebound.empty() &&
          std::any_of(fs.verdicts->begin(), fs.verdicts->end(), names_old_global)) {
        std::vector<core::LoopVerdict> moved = *fs.verdicts;
        for (core::LoopVerdict& v : moved) {
          for (const ast::VarDecl*& priv : v.privates) {
            auto it = rebound.find(priv);
            if (it == rebound.end()) continue;
            rerun |= it->second == nullptr;  // unreachable once sema passed
            priv = it->second;
          }
        }
        fs.verdicts = std::make_shared<const std::vector<core::LoopVerdict>>(std::move(moved));
      }
    } else if (!reused) {
      fs.name = function->name;
      fs.layout = compute_layout(*function);
    }
    fs.anchor = function->location;
    fs.content_key = key;
    fs.identity = identities.at(function);
    if (dirty) ++stats.dirty;
    if (rerun) {
      reanalyze.insert(function);
      fresh[k] = true;
    }
  }
  stats.reanalyzed = static_cast<int>(reanalyze.size());

  // --- Analysis over the cone ----------------------------------------------
  // Only summaries the cone's analysis can consult are materialized: the
  // cone functions' direct callees, recursing past a callee only when its
  // summary cannot rehydrate from the persistent cache. Every other clean
  // function's summary stays as an untouched cache entry — reuse by not
  // needing it at all.
  state->analyzer->run(&reanalyze, &graph);

  // --- Verdicts: fresh for the cone, cached elsewhere ----------------------
  core::Parallelizer parallelizer(*state->analyzer);
  std::vector<core::LoopVerdict> verdicts;
  std::vector<size_t> verdict_begin(n + 1);
  for (size_t k = 0; k < n; ++k) {
    verdict_begin[k] = verdicts.size();
    if (fresh[k]) {
      std::vector<core::LoopVerdict> computed = parallelizer.analyze_all(*program.functions[k]);
      verdicts.insert(verdicts.end(), computed.begin(), computed.end());
    } else {
      verdicts.insert(verdicts.end(), next[k].verdicts->begin(), next[k].verdicts->end());
      stats.reused_verdicts += static_cast<int>(next[k].verdicts->size());
    }
  }
  verdict_begin[n] = verdicts.size();

  // --- Diagnostics: fresh from the cone + cached buckets for clean code ----
  std::vector<support::Diagnostic> diags = state->diags.diagnostics();
  for (size_t k = 0; k < n; ++k) {
    if (!fresh[k]) diags.insert(diags.end(), next[k].diags.begin(), next[k].diags.end());
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

  // --- Annotate + print the cone; clean functions splice their text --------
  const std::span<const core::LoopVerdict> all_verdicts(verdicts);
  for (size_t k = 0; k < n; ++k) {
    if (!fresh[k]) continue;
    ast::FuncDecl& function = *program.functions[k];
    if (splice.reused_from[k] >= 0) transform::clear_annotations(function);
    next[k].annotated = transform::annotate_parallel_loops(
        function, all_verdicts.subspan(verdict_begin[k], verdict_begin[k + 1] - verdict_begin[k]));
    next[k].text.clear();
    ast::print_function(function, next[k].text);
  }
  std::string globals_text = splice.globals_changed ? ast::print_globals(program) : std::string();
  const std::string& globals = splice.globals_changed ? globals_text : globals_text_;
  size_t output_size = globals.size();
  for (const FuncState& fs : next) output_size += fs.text.size();
  result.output.reserve(output_size);
  result.output = globals;
  for (const FuncState& fs : next) {
    result.output += fs.text;
    result.annotated += fs.annotated;
  }

  // --- Harvest the new snapshot --------------------------------------------
  // Diagnostics are attributed to functions by source position: every W03xx
  // anchors inside the function being flowed (call sites anchor in the
  // caller), functions occupy disjoint byte ranges in source order, and
  // nothing of a function precedes its name token but its return type.
  std::vector<std::vector<support::Diagnostic>> buckets(n);
  for (const support::Diagnostic& d : diags) {
    auto it = std::upper_bound(program.functions.begin(), program.functions.end(),
                               d.location.offset, [](uint32_t offset, const auto& f) {
                                 return offset < f->location.offset;
                               });
    if (n > 0) buckets[it == program.functions.begin() ? 0 : (it - program.functions.begin()) - 1].push_back(d);
  }
  for (size_t k = 0; k < n; ++k) {
    next[k].diags = std::move(buckets[k]);
    if (fresh[k]) {
      // Immutable from here on: clean updates share it.
      next[k].verdicts = std::make_shared<const std::vector<core::LoopVerdict>>(
          verdicts.begin() + static_cast<ptrdiff_t>(verdict_begin[k]),
          verdicts.begin() + static_cast<ptrdiff_t>(verdict_begin[k + 1]));
    }
  }

  // --- Commit ---------------------------------------------------------------
  stats.reused_summaries = static_cast<int>(state->summaries->stats().shared_hits);
  stats.update_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  funcs_ = std::move(next);
  chunks_ = std::move(splice.chunks);
  source_ = source;
  if (splice.globals_changed) globals_text_ = std::move(globals_text);
  last_diags_ = diags;
  state_ = std::move(state);  // frees the previous version's replaced chunks
  totals_.add(stats);

  result.ok = true;
  result.verdicts = std::move(verdicts);
  result.diagnostics = std::move(diags);
  result.stats = stats;
  return result;
}

}  // namespace sspar::incremental
