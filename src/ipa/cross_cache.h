// Content-addressed cross-program summary cache (interprocedural analysis,
// step 4 — the scale half of the context-sensitivity upgrade).
//
// A FunctionSummary references AST declarations and arena-interned symbolic
// expressions, so it is bound to the pipeline::Session that computed it.
// Sharing summaries *across* programs (the batch driver analyzing a corpus
// where many entries contain byte-identical helper functions) therefore goes
// through a portable mirror form:
//
//   * PortableSummary — the summary with every decl pointer replaced by the
//     declaration's NAME and every sym::Expr replaced by a PortableExpr tree
//     whose atoms carry symbol names. Converting back ("rehydration")
//     resolves names against the target program (function parameters first,
//     then globals — the same scoping sema used) and re-interns every
//     expression in the target session's arena, so a rehydrated summary is
//     indistinguishable from a locally computed one.
//
//   * CacheKey — a 128-bit content address. The analyzer derives it from the
//     function's printed source, the declarations (name:type:dims) and
//     analyzer assumptions of every global the function references, the
//     content keys of its callees (a summary folds callee effects in, so the
//     address must cover the transitive closure), the AnalyzerOptions bits,
//     and the entry-fact fingerprint for context-sensitive re-summaries.
//     Identical key => identical analysis input => identical summary.
//
//   * CrossProgramCache — a thread-safe map from CacheKey to an immutable
//     PortableSummary, shared across sessions: a batch run's sessions when
//     the caller passes one (driver::BatchOptions::share_with, as the
//     store-backed CLI and server do), and the incremental engine's
//     successive updates. First writer wins; readers get a shared_ptr snapshot
//     and never block each other. Whether a session hits or misses can
//     depend on scheduling, but the rehydrated summary is always identical
//     to what the session would have computed, so batch verdicts stay
//     deterministic for every thread count.
//
// Analyzable summaries are always cacheable. Unanalyzable summaries carry
// program-specific failure locations, so they are shared only for
// call-graph SCC members (recursion), whose content keys fold the members'
// source locations in — identical key then implies identical locations, and
// the persistent store covers recursive helpers instead of silently
// recomputing their conservative effect sets every run. A summary whose
// expressions mention non-portable symbols (e.g. a function-body local) is
// skipped at insert time, and a rehydration that cannot resolve a name
// reports failure — both degrade to a local recompute, never to a wrong
// summary.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ipa/summary.h"
#include "symbolic/expr.h"

namespace sspar::ipa {

// ---------------------------------------------------------------------------
// Portable mirror types (no pointers into any session)
// ---------------------------------------------------------------------------

// Mirror of sym::Expr with symbol NAMES for atoms. Rehydration rebuilds the
// expression through the canonicalizing factories, which re-interns it in
// the current arena; because the source expression was canonical, the
// rebuilt node is structurally identical.
struct PortableExpr {
  sym::ExprKind kind = sym::ExprKind::Const;
  int64_t value = 0;                   // Const value / Add constant term
  std::string symbol;                  // declaration name for atom kinds
  std::vector<PortableExpr> operands;  // children
  std::vector<int64_t> coeffs;         // parallel to operands, Add only
};

struct PortableRange {
  std::optional<PortableExpr> lo, hi;  // nullopt = unbounded on that side
};

struct PortableGuard {
  std::string array;
  PortableExpr index;
  int64_t min = 0;
};

// Mirror of core::ArrayWriteEffect (summary_origin is dropped: summaries
// store their effects origin-free and the call site re-attributes them).
struct PortableEffect {
  std::string array;
  size_t dims = 1;
  std::optional<PortableExpr> index;
  PortableRange index_range;
  PortableRange value;
  bool conditional = false;
  bool from_inner = false;
  std::vector<PortableGuard> guards;
  std::string via_array;  // empty = none
  PortableRange via_domain;
  std::string post_inc_subscript;  // empty = none
};

struct PortableValueFact {
  PortableExpr lo, hi;
  PortableRange value;
};
struct PortableStepFact {
  PortableExpr lo, hi;
  PortableRange step;
};
struct PortableInjectiveFact {
  PortableExpr lo, hi;
  std::optional<int64_t> min_value;
  bool from_chain = false;
};
struct PortableIdentityFact {
  PortableExpr lo, hi;
};

struct PortableArrayFacts {
  std::vector<PortableValueFact> values;
  std::vector<PortableStepFact> steps;
  std::vector<PortableInjectiveFact> injectives;
  std::vector<PortableIdentityFact> identities;
};

// Name-keyed mirror of FunctionSummary. Analyzable summaries carry the full
// effect payload; unanalyzable ones (shared for SCC members only, see the
// header comment) carry the conservative may-write sets plus the failure
// text/location, exactly what their callers' havoc paths consume.
struct PortableSummary {
  std::string function;
  std::vector<std::string> may_write_scalars;
  std::vector<std::string> may_write_arrays;
  std::vector<std::string> definite_scalar_writes;
  std::vector<std::string> exposed_scalar_reads;
  bool writes_array_params = false;
  bool analyzable = true;
  bool opaque = false;
  std::string failure;        // non-empty only when !analyzable
  uint32_t failure_line = 0;  // mirror of FunctionSummary::failure_location
  uint32_t failure_column = 0;
  std::map<std::string, PortableRange> scalar_finals;
  std::vector<PortableEffect> writes;
  std::vector<PortableEffect> reads;
  std::map<std::string, PortableArrayFacts> end_facts;
  std::optional<PortableRange> return_value;
  uint64_t entry_fingerprint = 0;
};

// ---------------------------------------------------------------------------
// Content addressing
// ---------------------------------------------------------------------------

// 128-bit content address (two independent FNV-1a streams; collisions across
// a corpus are then out of practical reach).
struct CacheKey {
  uint64_t hi = 0;
  uint64_t lo = 0;
  bool operator<(const CacheKey& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }
  bool operator==(const CacheKey& o) const { return hi == o.hi && lo == o.lo; }
  explicit operator bool() const { return hi != 0 || lo != 0; }
};

// Streaming hasher for content keys and fact fingerprints.
class ContentHasher {
 public:
  void mix(std::string_view text);
  void mix(uint64_t v);
  CacheKey key() const { return CacheKey{a_, b_}; }
  uint64_t value64() const { return a_; }

 private:
  uint64_t a_ = 1469598103934665603ull;   // FNV-1a offset basis
  uint64_t b_ = 14695981039346656037ull;  // independent second stream
};

// ---------------------------------------------------------------------------
// Conversion (implemented in cross_cache.cpp)
// ---------------------------------------------------------------------------

// Global-scope name index of one program: its globals by symbol and by name,
// and its functions by name. Conversion resolves against this index with one
// function's parameters overlaid, so a call costs the summary plus the
// parameter list, never a rebuild over every global. Built once per program
// (ipa::SummaryDB::scope owns one per session); the program must outlive it.
class ProgramScope {
 public:
  explicit ProgramScope(const ast::Program& program);

  const ast::Program& program() const { return program_; }

  // Name of a symbol of `function`'s conversion namespace (its parameters,
  // then the program's globals); null for any other symbol.
  const std::string* name_of(const ast::FuncDecl& function, sym::SymbolId symbol) const;
  // True when no two distinct symbols of that namespace share one name — a
  // shadowing parameter (or a redeclared global) would mis-resolve on
  // rehydration, so such summaries are not portable.
  bool names_distinct(const ast::FuncDecl& function) const;
  // Declaration named `name` as sema scoping sees it inside `function`: the
  // last parameter of that name, else the last global of that name.
  const ast::VarDecl* resolve(const ast::FuncDecl& function, const std::string& name) const;
  // First function named `name` (Program::find_function's answer).
  const ast::FuncDecl* find_function(const std::string& name) const;

 private:
  const ast::Program& program_;
  std::unordered_map<sym::SymbolId, const std::string*> global_names_;
  std::unordered_map<std::string, const ast::VarDecl*> globals_;
  std::unordered_map<std::string, const ast::FuncDecl*> functions_;
  bool globals_distinct_ = true;
};

// Null on any non-portable content: a symbol that is neither a global of the
// program nor a parameter of `summary.function` (a context-sensitive
// summary's entry facts may mention globals the callee itself never
// references, hence the whole program's global scope), or two distinct
// symbols sharing one declaration name (shadowing would mis-resolve on
// rehydration). Unanalyzable summaries convert when `allow_unanalyzable`
// (the SCC path); only their conservative sets and failure are carried.
std::optional<PortableSummary> to_portable(const FunctionSummary& summary,
                                           const ProgramScope& scope,
                                           bool allow_unanalyzable = false);

// Resolves names against the scope's program (parameters of the named
// function first, then globals) and interns every expression in the CURRENT
// arena. Null when the program has no matching function/declaration shape —
// the caller then computes locally.
std::optional<FunctionSummary> rehydrate(const PortableSummary& portable,
                                         const ProgramScope& scope);

// Deterministic 64-bit fingerprint of a fact database's content, serialized
// by symbol NAME (so two programs with identical declarations produce the
// same fingerprint for the same facts). 0 for an empty database, never 0
// otherwise — the SummaryDB uses 0 as the "no entry facts" base key.
uint64_t fingerprint_facts(const core::FactDB& facts, const sym::SymbolTable& symbols);

// Every scalar symbol (Sym atom) mentioned by any expression of any fact in
// the database. The analyzer folds the assumption bounds of these symbols
// into a context summary's content address: the fingerprint covers the
// facts' text, but proofs made under the facts may also depend on what is
// assumed about the scalars they mention.
std::set<sym::SymbolId> collect_fact_scalar_symbols(const core::FactDB& facts);

// ---------------------------------------------------------------------------
// The shared cache
// ---------------------------------------------------------------------------

class CrossProgramCache {
 public:
  struct Stats {
    size_t lookups = 0;
    size_t hits = 0;
    size_t misses = 0;
    size_t inserts = 0;    // first-writer inserts (duplicates not counted)
    size_t entries = 0;    // current size; == inserts + preloaded
    size_t preloaded = 0;  // entries loaded from a persistent store
    // Hits served by a preloaded entry. Unlike the raw hit/miss split, this
    // IS deterministic for a fixed input set: a preloaded key is present
    // from the first lookup on, so scheduling cannot flip it.
    size_t preloaded_hits = 0;
    // lookups and entries are deterministic for a fixed input set; the
    // hit/miss split can vary with scheduling when sessions race on the same
    // key (both compute, one inserts) — never the analysis results.
  };

  // One cache entry as exported to the persistent store.
  struct Snapshot {
    CacheKey key;
    std::shared_ptr<const PortableSummary> summary;
    bool preloaded = false;  // came from SummaryStore::preload
    size_t hits = 0;         // find()s served by this entry
  };

  // Counts the lookup and a hit or miss; null on miss. The returned snapshot
  // is immutable and safe to read without the lock. `from_store`, if given,
  // reports whether the hit was served by a preloaded (persistent-store)
  // entry.
  std::shared_ptr<const PortableSummary> find(const CacheKey& key,
                                              bool* from_store = nullptr);

  // First writer wins (a concurrent duplicate insert is dropped; both
  // writers computed the identical summary, so either copy serves).
  void insert(const CacheKey& key, PortableSummary summary);

  // Store-side insert: marks the entry as preloaded so later hits are
  // attributed to the persistent store. Same first-writer-wins contract.
  void insert_preloaded(const CacheKey& key, PortableSummary summary);

  // The entries inserted or first hit since the previous call, with their
  // preloaded/hit bookkeeping, in key order — the store's absorb() input, so
  // an absorb costs what changed rather than the whole cache. Preloaded
  // entries came from the store, so only a hit queues them. Entries are
  // shared_ptr snapshots; safe to use after the lock is released.
  std::vector<Snapshot> take_changes();

  Stats stats() const;
  size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const PortableSummary> summary;
    bool preloaded = false;
    bool queued = false;  // listed in changed_
    size_t hits = 0;
  };

  bool insert_impl(const CacheKey& key, PortableSummary summary, bool preloaded);

  mutable std::mutex mutex_;
  std::map<CacheKey, Entry> entries_;
  std::vector<CacheKey> changed_;  // since the last take_changes()
  Stats stats_;
};

}  // namespace sspar::ipa
