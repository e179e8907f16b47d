#ifndef SMARTPSI_TOOLS_PSI_CHECK_CHECKER_H_
#define SMARTPSI_TOOLS_PSI_CHECK_CHECKER_H_

// tools/psi_check — the project-contract static-analysis pass (DESIGN.md
// §15). Six rules, each enforcing a written contract that generic tools
// (clang-tidy, cppcheck) cannot see because the contracts are this repo's,
// not the language's:
//
//   layering      src/ include edges must follow the layer DAG
//                 util → graph → signature → {match, ml} → core →
//                 service → fsm (tools/tests/bench sit on top).
//   determinism   result-producing layers (graph, signature, match, core,
//                 fsm) may not call rand()/time(), touch
//                 std::random_device / std::chrono::system_clock, default-
//                 construct std::mt19937, or range-iterate an
//                 unordered_{map,set} (iteration order could leak into
//                 results — Prop. 3.2 exactness and the bit-identical
//                 parallel-search contract both depend on this).
//   lock-guard    a class declaring a util::Mutex must annotate every
//                 mutable field PSI_GUARDED_BY / PSI_PT_GUARDED_BY
//                 (atomics, const, and the locks themselves are exempt).
//   fault-site    every PSI_INJECT_FAULT / PSI_FAULT_STALL hook must name
//                 a constant from src/util/fault_sites.h; every registered
//                 site must appear in DESIGN.md and in at least one test;
//                 raw site-string literals in src/ are banned.
//   metrics-pair  every uint64_t counter on MetricsSnapshot must be
//                 emitted by ToString and asserted in a test; every
//                 std::atomic<uint64_t> on MetricsRegistry must have a
//                 matching snapshot field.
//   unused-decl   every function declared in a src/ header must be named
//                 somewhere in src/, tools/, bench/, perfbench/ or
//                 examples/ besides its own declaration and definition;
//                 tests alone do not keep code alive. A class member
//                 counts only when named as `.name`, `->name` or
//                 `Class::name`, or unqualified in a file that declares
//                 or defines members of its class, so a free function of
//                 the same name does not hide it. Constructors,
//                 destructors, operators and overrides are exempt. A
//                 field of SmartPsiConfig, ServiceOptions or FsmConfig
//                 that nothing outside tests/ assigns (`.field =`) is an
//                 unset knob and is flagged too, whether tests/ sets it
//                 or no file does. Matching is by name, so the rule can
//                 miss dead code.
//
// Any violation is suppressible only by an explicit annotation on the
// offending line (or the line above):
//
//   // psi-check: allow(<rule>) -- <reason>
//
// A malformed annotation is itself a violation (rule `waiver`).

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "tools/psi_check/lexer.h"

namespace psi::check {

struct Violation {
  std::string rule;
  std::string file;  // repo-root-relative, '/' separators
  int line = 0;
  std::string message;
  bool waived = false;
  std::string waive_reason;
};

/// One parsed source file plus its layer assignment.
struct SourceFile {
  std::string rel_path;
  std::string layer;  // "" when outside src/<layer>/
  LexedFile lexed;
};

class Checker {
 public:
  /// `root` is the repository root (must contain src/). Returns false —
  /// with a diagnostic in error() — when the tree cannot be loaded.
  bool Load(const std::filesystem::path& root);

  /// Runs every rule over the loaded tree. Call once.
  void RunAll();

  const std::vector<Violation>& violations() const { return violations_; }
  int unwaived_count() const;
  const std::string& error() const { return error_; }

  std::string TextReport() const;
  std::string JsonReport() const;

 private:
  void CheckWaiverSyntax(const SourceFile& file);
  void CheckLayering(const SourceFile& file);
  void CheckDeterminism(const SourceFile& file);
  void CheckLockGuards(const SourceFile& file);
  void CheckFaultSites();
  void CheckMetricsPairing();
  void CheckUnusedDecls();
  /// Part of unused-decl: config fields nothing outside tests/ assigns
  /// (tests alone, or no file at all).
  void CheckTestOnlyKnobs();

  /// Records `v`, resolving waivers against the file's annotations.
  void Report(const SourceFile& file, std::string rule, int line,
              std::string message);

  const SourceFile* Find(std::string_view rel_path) const;

  std::filesystem::path root_;
  std::vector<SourceFile> files_;        // src/**/*.{h,cc}
  std::vector<LexedFile> caller_files_;  // tools, bench, perfbench, examples
  std::string design_text_;              // DESIGN.md (may be empty)
  std::string tests_text_;               // concatenated tests/**/*.{h,cc}
  std::vector<LexedFile> test_files_;    // the same files, lexed
  std::vector<Violation> violations_;
  std::string error_;
};

/// Command-line entry point (argv-style, excluding argv[0]). Returns the
/// process exit code: 0 clean, 1 unwaived violations, 2 usage/load error.
/// Output goes to stdout (report) and stderr (errors).
int RunPsiCheck(const std::vector<std::string>& args);

}  // namespace psi::check

#endif  // SMARTPSI_TOOLS_PSI_CHECK_CHECKER_H_
