// Diagnostic sink shared by the frontend and the analysis passes.
//
// The engine collects diagnostics instead of printing them so tests can make
// exact assertions about what a pass reported. Every diagnostic carries a
// stable machine-readable code (DiagCode) in addition to the human-readable
// message, so tools (and the JSON report) can match on the *kind* of error
// without parsing message text.
#pragma once

#include <string>
#include <vector>

#include "support/source_location.h"

namespace sspar::support {

enum class Severity { Note, Warning, Error };

// Stable diagnostic codes. The numeric ranges are reserved per layer:
//   E01xx lexer, E02xx parser, E03xx sema. Warnings use a parallel W-space:
// enum values >= kWarningBase render as W<code-1000> (W03xx analysis
// warnings). Codes are part of the public contract (the JSON report exposes
// them); never renumber an existing one.
inline constexpr int kWarningBase = 1000;

enum class DiagCode {
  Unspecified = 0,  // legacy call sites that have not been classified

  // Lexer.
  LexUnterminatedComment = 101,  // E0101
  LexUnexpectedChar = 102,       // E0102
  LexLiteralOutOfRange = 103,    // E0103: int literal beyond int64, float beyond double

  // Parser.
  ParseExpectedToken = 201,  // E0201: expect() mismatch
  ParseExpectedType = 202,   // E0202
  ParseExpectedDecl = 203,   // E0203: junk at top level
  ParseExpectedExpr = 204,   // E0204
  ParseTooManyErrors = 205,  // E0205: the parser gave up (Parser::kMaxErrors)

  // Sema.
  SemaRedeclaration = 301,      // E0301
  SemaUndeclared = 302,         // E0302
  SemaNotAnArray = 303,         // E0303: subscripting a scalar
  SemaTooManySubscripts = 304,  // E0304
  SemaSubscriptBase = 305,      // E0305: base is not a variable
  SemaBadAssignTarget = 306,    // E0306
  SemaBadIncrementTarget = 307, // E0307

  // Analysis warnings (W03xx): a loop was abandoned as unanalyzable and the
  // analyzer degraded to conservative havoc instead of failing.
  AnalysisLoopCall = kWarningBase + 301,        // W0301: call without a usable summary
  AnalysisLoopWhile = kWarningBase + 302,       // W0302: inner while loop
  AnalysisLoopAbruptExit = kWarningBase + 303,  // W0303: break/continue/return
};

// "E0302"-style stable spelling (empty string for Unspecified).
std::string diag_code_name(DiagCode code);

// "note" / "warning" / "error".
const char* severity_name(Severity sev);

struct Diagnostic {
  Severity severity = Severity::Error;
  DiagCode code = DiagCode::Unspecified;
  SourceLocation location;
  std::string message;

  // "3:12: error: use of undeclared identifier 'y' [E0302]"
  std::string to_string() const;

  friend bool operator==(const Diagnostic& a, const Diagnostic& b) {
    return a.severity == b.severity && a.code == b.code &&
           a.location.line == b.location.line && a.location.column == b.location.column &&
           a.message == b.message;
  }
};

// Canonical diagnostic order: (line, column, code, severity, message).
bool diag_canonical_less(const Diagnostic& a, const Diagnostic& b);

// Stable emission order for diagnostics: sorts by diag_canonical_less and
// drops exact duplicates. Analysis passes may visit functions in any order
// (batch shards, incremental dirty cones); canonical order makes their
// reports byte-comparable.
void canonicalize_diagnostics(std::vector<Diagnostic>& diags);

class DiagnosticEngine {
 public:
  void report(Severity sev, SourceLocation loc, std::string message) {
    report(sev, DiagCode::Unspecified, loc, std::move(message));
  }
  void report(Severity sev, DiagCode code, SourceLocation loc, std::string message);

  void error(SourceLocation loc, std::string message) {
    report(Severity::Error, loc, std::move(message));
  }
  void error(DiagCode code, SourceLocation loc, std::string message) {
    report(Severity::Error, code, loc, std::move(message));
  }
  void warning(SourceLocation loc, std::string message) {
    report(Severity::Warning, loc, std::move(message));
  }
  void note(SourceLocation loc, std::string message) {
    report(Severity::Note, loc, std::move(message));
  }

  bool has_errors() const { return error_count_ > 0; }
  size_t error_count() const { return error_count_; }
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

  // All diagnostics joined by newlines; convenient for test failure messages.
  std::string dump() const;

  void clear();

 private:
  std::vector<Diagnostic> diagnostics_;
  size_t error_count_ = 0;
};

}  // namespace sspar::support
