#include "driver/json_report.h"

#include "frontend/ast.h"
#include "symbolic/expr.h"

namespace sspar::driver {

using support::json::Array;
using support::json::Object;
using support::json::Value;

namespace {

Value diagnostic_to_json(const support::Diagnostic& d) {
  Object o;
  o.emplace("severity", support::severity_name(d.severity));
  o.emplace("code", support::diag_code_name(d.code));
  o.emplace("line", static_cast<int64_t>(d.location.line));
  o.emplace("column", static_cast<int64_t>(d.location.column));
  o.emplace("message", d.message);
  return Value(std::move(o));
}

Value stage_to_json(const pipeline::StageStats& stage) {
  Object o;
  o.emplace("runs", stage.runs);
  o.emplace("total_ms", stage.total_ms);
  return Value(std::move(o));
}

Value section_to_json(const sym::ExprPtr& lo, const sym::ExprPtr& hi,
                      const sym::SymbolTable& symbols) {
  Object o;
  o.emplace("lo", lo ? Value(sym::to_string(lo, symbols)) : Value(nullptr));
  o.emplace("hi", hi ? Value(sym::to_string(hi, symbols)) : Value(nullptr));
  return Value(std::move(o));
}

}  // namespace

Value verdict_to_json(const core::LoopVerdict& verdict) {
  Object o;
  o.emplace("loop_id", verdict.loop_id);
  if (verdict.loop && verdict.loop->location.valid()) {
    o.emplace("line", static_cast<int64_t>(verdict.loop->location.line));
  }
  o.emplace("canonical", verdict.canonical);
  o.emplace("parallel", verdict.parallel);
  o.emplace("subscripted", verdict.uses_subscripted_subscripts);
  o.emplace("property", core::property_name(verdict.property));
  o.emplace("peeled", verdict.peeled);
  o.emplace("reason", verdict.reason);
  o.emplace("hybrid", verdict.hybrid);
  if (verdict.hybrid) {
    // Inspector–executor dual-version metadata: the property the emitted
    // runtime check verifies, the index array it inspects, and the inclusive
    // section bounds of the check.
    o.emplace("hybrid_property", core::property_name(verdict.hybrid_property));
    o.emplace("hybrid_index_array", verdict.hybrid_index_array);
    o.emplace("hybrid_check_lo", verdict.hybrid_check_lo);
    o.emplace("hybrid_check_hi", verdict.hybrid_check_hi);
    if (verdict.hybrid_property == core::EnablingProperty::SubsetInjective) {
      o.emplace("hybrid_min_value", verdict.hybrid_min_value);
    }
  }
  // Interprocedural provenance: the functions whose summaries proved the
  // enabling property ("property proven via summary of f").
  Array via_summaries;
  for (const std::string& name : verdict.summaries_used) via_summaries.emplace_back(name);
  o.emplace("via_summaries", std::move(via_summaries));
  Array blockers;
  for (const std::string& b : verdict.blockers) blockers.emplace_back(b);
  o.emplace("blockers", std::move(blockers));
  Array privates;
  for (const ast::VarDecl* p : verdict.privates) privates.emplace_back(p->name);
  o.emplace("privates", std::move(privates));
  return Value(std::move(o));
}

Value facts_to_json(const core::FactDB& facts, const sym::SymbolTable& symbols) {
  Object by_array;
  for (const auto& [array, array_facts_ptr] : facts.all()) {
    const core::ArrayFacts& array_facts = *array_facts_ptr;
    Object entry;
    Array identities;
    for (const auto& f : array_facts.identities) {
      identities.push_back(section_to_json(f.lo, f.hi, symbols));
    }
    entry.emplace("identities", std::move(identities));
    Array values;
    for (const auto& f : array_facts.values) {
      Value section = section_to_json(f.lo, f.hi, symbols);
      section.as_object().emplace("value", f.value.to_string(symbols));
      values.push_back(std::move(section));
    }
    entry.emplace("values", std::move(values));
    Array steps;
    for (const auto& f : array_facts.steps) {
      Value section = section_to_json(f.lo, f.hi, symbols);
      section.as_object().emplace("step", f.step.to_string(symbols));
      steps.push_back(std::move(section));
    }
    entry.emplace("steps", std::move(steps));
    Array injectives;
    for (const auto& f : array_facts.injectives) {
      Value section = section_to_json(f.lo, f.hi, symbols);
      if (f.min_value) {
        section.as_object().emplace("min_value", *f.min_value);
      }
      injectives.push_back(std::move(section));
    }
    entry.emplace("injectives", std::move(injectives));
    by_array.emplace(symbols.name(array), std::move(entry));
  }
  return Value(std::move(by_array));
}

Value program_report_to_json(const ProgramReport& report, bool include_output) {
  Object o;
  o.emplace("name", report.name);
  o.emplace("ok", report.ok);
  if (!report.ok) o.emplace("error", report.error);
  Array diags;
  for (const auto& d : report.result.diags) diags.push_back(diagnostic_to_json(d));
  o.emplace("diagnostics", std::move(diags));
  o.emplace("loops", report.loops);
  o.emplace("subscripted", report.subscripted);
  o.emplace("parallel", report.parallel);
  o.emplace("parallel_subscripted", report.parallel_subscripted);
  o.emplace("annotated", report.result.parallelized);
  Object coverage;
  coverage.emplace("static_parallel", report.static_parallel);
  coverage.emplace("hybrid_parallel", report.hybrid_parallel);
  coverage.emplace("serial", report.serial);
  o.emplace("coverage", std::move(coverage));
  Array verdicts;
  for (const auto& v : report.result.verdicts) verdicts.push_back(verdict_to_json(v));
  o.emplace("verdicts", std::move(verdicts));
  Object stages;
  stages.emplace("parse", stage_to_json(report.stages.parse));
  stages.emplace("analyze", stage_to_json(report.stages.analyze));
  stages.emplace("parallelize", stage_to_json(report.stages.parallelize));
  stages.emplace("annotate", stage_to_json(report.stages.annotate));
  stages.emplace("emit", stage_to_json(report.stages.emit));
  o.emplace("stages", std::move(stages));
  Object summary_cache;
  summary_cache.emplace("computed", static_cast<int64_t>(report.summary_cache.computed));
  summary_cache.emplace("hits", static_cast<int64_t>(report.summary_cache.hits));
  summary_cache.emplace("applications",
                        static_cast<int64_t>(report.summary_cache.applications));
  summary_cache.emplace("context_computed",
                        static_cast<int64_t>(report.summary_cache.context_computed));
  summary_cache.emplace("shared_hits",
                        static_cast<int64_t>(report.summary_cache.shared_hits));
  summary_cache.emplace("shared_misses",
                        static_cast<int64_t>(report.summary_cache.shared_misses));
  summary_cache.emplace("store_hits",
                        static_cast<int64_t>(report.summary_cache.store_hits));
  summary_cache.emplace("scc_summaries",
                        static_cast<int64_t>(report.summary_cache.scc_summaries));
  o.emplace("summary_cache", std::move(summary_cache));
  if (include_output && report.ok) o.emplace("output", report.result.output);
  return Value(std::move(o));
}

Value stats_to_json(const BatchStats& stats) {
  Object o;
  o.emplace("programs", stats.programs);
  o.emplace("failed", stats.failed);
  o.emplace("loops", stats.loops);
  o.emplace("subscripted", stats.subscripted);
  o.emplace("parallel", stats.parallel);
  o.emplace("parallel_subscripted", stats.parallel_subscripted);
  o.emplace("annotated", stats.annotated);
  Object coverage;
  coverage.emplace("static_parallel", stats.static_parallel);
  coverage.emplace("hybrid_parallel", stats.hybrid_parallel);
  coverage.emplace("serial", stats.serial);
  o.emplace("coverage", std::move(coverage));
  o.emplace("programs_with_pattern", stats.programs_with_pattern);
  o.emplace("summaries_computed", stats.summaries_computed);
  o.emplace("summary_cache_hits", stats.summary_cache_hits);
  o.emplace("summary_applications", stats.summary_applications);
  o.emplace("summary_context_computed", stats.summary_context_computed);
  o.emplace("cross_summary_requests", stats.cross_summary_requests);
  o.emplace("cross_summary_entries", stats.cross_summary_entries);
  o.emplace("summary_scc", stats.summary_scc);
  // Persistent-store counters (all deterministic for a fixed input set and
  // store state — see BatchStats).
  Object store;
  store.emplace("loaded", stats.store_loaded);
  store.emplace("hits", stats.store_hits);
  store.emplace("misses", stats.store_misses);
  store.emplace("evicted", stats.store_evicted);
  store.emplace("flushed", stats.store_flushed);
  o.emplace("persistent_store", std::move(store));
  // Per-run resilience counter (see BatchStats: deterministic, inside
  // operator== — the server's cumulative totals are reported elsewhere).
  Object resilience;
  resilience.emplace("journal_replays", stats.journal_replays);
  o.emplace("resilience", std::move(resilience));
  Object properties;
  for (const auto& [key, count] : stats.property_counts) properties.emplace(key, count);
  o.emplace("property_counts", std::move(properties));
  return Value(std::move(o));
}

BatchStats stats_from_json(const Value& value) {
  BatchStats stats;
  stats.programs = static_cast<int>(value.int_or("programs", 0));
  stats.failed = static_cast<int>(value.int_or("failed", 0));
  stats.loops = static_cast<int>(value.int_or("loops", 0));
  stats.subscripted = static_cast<int>(value.int_or("subscripted", 0));
  stats.parallel = static_cast<int>(value.int_or("parallel", 0));
  stats.parallel_subscripted = static_cast<int>(value.int_or("parallel_subscripted", 0));
  stats.annotated = static_cast<int>(value.int_or("annotated", 0));
  if (const Value* coverage = value.find("coverage")) {
    stats.static_parallel = static_cast<int>(coverage->int_or("static_parallel", 0));
    stats.hybrid_parallel = static_cast<int>(coverage->int_or("hybrid_parallel", 0));
    stats.serial = static_cast<int>(coverage->int_or("serial", 0));
  }
  stats.programs_with_pattern = static_cast<int>(value.int_or("programs_with_pattern", 0));
  stats.summaries_computed = static_cast<int>(value.int_or("summaries_computed", 0));
  stats.summary_cache_hits = static_cast<int>(value.int_or("summary_cache_hits", 0));
  stats.summary_applications = static_cast<int>(value.int_or("summary_applications", 0));
  stats.summary_context_computed =
      static_cast<int>(value.int_or("summary_context_computed", 0));
  stats.cross_summary_requests =
      static_cast<int>(value.int_or("cross_summary_requests", 0));
  stats.cross_summary_entries = static_cast<int>(value.int_or("cross_summary_entries", 0));
  stats.summary_scc = static_cast<int>(value.int_or("summary_scc", 0));
  if (const Value* store = value.find("persistent_store")) {
    stats.store_loaded = static_cast<int>(store->int_or("loaded", 0));
    stats.store_hits = static_cast<int>(store->int_or("hits", 0));
    stats.store_misses = static_cast<int>(store->int_or("misses", 0));
    stats.store_evicted = static_cast<int>(store->int_or("evicted", 0));
    stats.store_flushed = static_cast<int>(store->int_or("flushed", 0));
  }
  if (const Value* resilience = value.find("resilience")) {
    stats.journal_replays = static_cast<int>(resilience->int_or("journal_replays", 0));
  }
  if (const Value* properties = value.find("property_counts")) {
    if (properties->is_object()) {
      for (const auto& [key, count] : properties->as_object()) {
        if (count.is_number()) stats.property_counts[key] = static_cast<int>(count.as_int());
      }
    }
  }
  return stats;
}

Value batch_report_to_json(const BatchReport& report, unsigned threads, bool include_output) {
  Object o;
  o.emplace("threads", static_cast<int64_t>(threads));
  Array programs;
  for (const ProgramReport& p : report.programs) {
    programs.push_back(program_report_to_json(p, include_output));
  }
  o.emplace("programs", std::move(programs));
  o.emplace("stats", stats_to_json(report.stats));
  // Raw cross-program cache counters (lookups/entries deterministic; the
  // hit/miss split may vary with scheduling — see CrossProgramCache::Stats).
  Object shared;
  shared.emplace("lookups", static_cast<int64_t>(report.shared_cache.lookups));
  shared.emplace("hits", static_cast<int64_t>(report.shared_cache.hits));
  shared.emplace("misses", static_cast<int64_t>(report.shared_cache.misses));
  shared.emplace("inserts", static_cast<int64_t>(report.shared_cache.inserts));
  shared.emplace("entries", static_cast<int64_t>(report.shared_cache.entries));
  shared.emplace("preloaded", static_cast<int64_t>(report.shared_cache.preloaded));
  shared.emplace("preloaded_hits",
                 static_cast<int64_t>(report.shared_cache.preloaded_hits));
  o.emplace("cross_program_cache", std::move(shared));
  return Value(std::move(o));
}

}  // namespace sspar::driver
