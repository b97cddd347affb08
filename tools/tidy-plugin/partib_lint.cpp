// partib_lint — the single implementation of the five partib-* checks.
//
// The checks run over a hand-rolled C++ lexer rather than the clang AST,
// so they run (and gate ctest and CI) on any host with a C++20 compiler.
// Findings use clang-tidy's diagnostic grammar, which the FileCheck
// fixtures under test/ match:
//
//       <file>:<line>:<col>: warning: <message> [<check-name>]
//
// Suppression follows clang-tidy's comment conventions: NOLINT /
// NOLINT(check,...) on the offending line, NOLINTNEXTLINE(...) on the
// line before it, and NOLINTBEGIN(...) / NOLINTEND(...) ranges.
//
// Checks:
//   partib-no-alloc-in-hot-path   heap allocation inside a PARTIB_HOT
//                                 function body (new, malloc family,
//                                 make_unique/make_shared)
//   partib-no-wall-clock-in-sim   wall-clock / libc randomness in the
//                                 deterministic simulation layers
//                                 (src/sim, src/fabric, src/verbs,
//                                 src/part) — time must come from the
//                                 DES engine, randomness from seeded RNGs
//   partib-diag-rule-registered   every rule id named by check::report()
//                                 or a Diagnostic::rule assignment must
//                                 exist in src/check/rules.inc
//   partib-mutex-wrapper-only     raw std::mutex-family types outside
//                                 src/common/ — use common::Mutex, whose
//                                 annotations and observer hooks the
//                                 concurrency auditors depend on
//   partib-no-raw-atomic-spin     atomic flag reads spun on in a loop
//                                 condition inside src/mpi or src/part —
//                                 producer threads hand work to the
//                                 bridge via the shard API
//                                 (runtime/sharded_engine.hpp), they do
//                                 not busy-wait on ad-hoc atomics
//
// Usage:
//   partib_lint [--rules=<path/to/rules.inc>] [--as-path=<virtual path>]
//               <file>...
//
// --as-path substitutes a virtual path for the (single) input file, so a
// fixture under test/ can pretend to live in src/sim/ and trigger the
// path-scoped checks.  Exit status: 0 = clean, 1 = findings, 2 = usage or
// I/O error.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Check names
// ---------------------------------------------------------------------------

constexpr const char* kAllocCheck = "partib-no-alloc-in-hot-path";
constexpr const char* kWallClockCheck = "partib-no-wall-clock-in-sim";
constexpr const char* kDiagRuleCheck = "partib-diag-rule-registered";
constexpr const char* kMutexCheck = "partib-mutex-wrapper-only";
constexpr const char* kAtomicSpinCheck = "partib-no-raw-atomic-spin";

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class Tok { kIdent, kString, kPunct };

struct Token {
  Tok kind;
  std::string text;  // identifier spelling, string *contents*, or punct char
  int line;
  int col;
};

/// One NOLINT-style suppression region (inclusive line range).  Line-level
/// suppressions are ranges of length one.
struct Suppression {
  int first_line;
  int last_line;             // INT_MAX while a NOLINTBEGIN is unclosed
  std::set<std::string> checks;  // empty set = all checks
};

struct LexedFile {
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
};

bool ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool ident_char(char c) { return ident_start(c) || (c >= '0' && c <= '9'); }

/// Parse the body of a NOLINT-family comment directive into a suppression
/// set.  `rest` starts right after the directive keyword.
std::set<std::string> parse_check_list(std::string_view rest) {
  std::set<std::string> checks;
  if (rest.empty() || rest.front() != '(') return checks;  // bare = all
  const std::size_t close = rest.find(')');
  std::string_view list = rest.substr(1, close == std::string_view::npos
                                             ? std::string_view::npos
                                             : close - 1);
  std::size_t pos = 0;
  while (pos < list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string_view::npos) comma = list.size();
    std::string_view item = list.substr(pos, comma - pos);
    while (!item.empty() && item.front() == ' ') item.remove_prefix(1);
    while (!item.empty() && item.back() == ' ') item.remove_suffix(1);
    if (!item.empty()) checks.emplace(item);
    pos = comma + 1;
  }
  if (checks.empty()) checks.emplace("*");  // "NOLINT()" — treat as all
  return checks;
}

/// Scan a comment's text for NOLINT directives and record suppressions.
void scan_comment(std::string_view text, int line, LexedFile* out) {
  for (std::size_t i = 0; i + 6 <= text.size(); ++i) {
    if (text.compare(i, 6, "NOLINT") != 0) continue;
    std::string_view rest = text.substr(i + 6);
    if (rest.rfind("NEXTLINE", 0) == 0) {
      out->suppressions.push_back(
          {line + 1, line + 1, parse_check_list(rest.substr(8))});
      i += 13;
    } else if (rest.rfind("BEGIN", 0) == 0) {
      out->suppressions.push_back(
          {line, 0x7fffffff, parse_check_list(rest.substr(5))});
      i += 10;
    } else if (rest.rfind("END", 0) == 0) {
      const std::set<std::string> checks = parse_check_list(rest.substr(3));
      // Close the innermost still-open BEGIN with the same check list.
      for (auto it = out->suppressions.rbegin();
           it != out->suppressions.rend(); ++it) {
        if (it->last_line == 0x7fffffff && it->checks == checks) {
          it->last_line = line;
          break;
        }
      }
      i += 8;
    } else {
      out->suppressions.push_back({line, line, parse_check_list(rest)});
      i += 5;
    }
  }
}

LexedFile lex(const std::string& src) {
  LexedFile out;
  int line = 1;
  int col = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();

  auto advance = [&](std::size_t count) {
    for (std::size_t k = 0; k < count && i < n; ++k, ++i) {
      if (src[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
  };

  while (i < n) {
    const char c = src[i];
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t end = src.find('\n', i);
      if (end == std::string::npos) end = n;
      scan_comment(std::string_view(src).substr(i, end - i), line, &out);
      advance(end - i);
      continue;
    }
    // Block comment (may span lines; directives indexed by opening line).
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      std::size_t end = src.find("*/", i + 2);
      end = end == std::string::npos ? n : end + 2;
      scan_comment(std::string_view(src).substr(i, end - i), line, &out);
      advance(end - i);
      continue;
    }
    // Raw string literal.
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t p = i + 2;
      while (p < n && src[p] != '(') ++p;
      std::string delim = ")";
      delim += std::string_view(src).substr(i + 2, p - (i + 2));
      delim += '"';
      std::size_t end = src.find(delim, p);
      end = end == std::string::npos ? n : end + delim.size();
      out.tokens.push_back({Tok::kString,
                            src.substr(p + 1, end - delim.size() - (p + 1)),
                            line, col});
      advance(end - i);
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const int tline = line;
      const int tcol = col;
      std::size_t p = i + 1;
      while (p < n && src[p] != c) {
        if (src[p] == '\\' && p + 1 < n) ++p;
        ++p;
      }
      if (c == '"') {
        out.tokens.push_back(
            {Tok::kString, src.substr(i + 1, p - i - 1), tline, tcol});
      }
      advance(p + 1 - i);
      continue;
    }
    // Identifier / keyword.
    if (ident_start(c)) {
      std::size_t p = i + 1;
      while (p < n && ident_char(src[p])) ++p;
      out.tokens.push_back(
          {Tok::kIdent, src.substr(i, p - i), line, col});
      advance(p - i);
      continue;
    }
    // Number (skipped; consume so "0x2e" dots don't become punct).
    if (c >= '0' && c <= '9') {
      std::size_t p = i + 1;
      while (p < n && (ident_char(src[p]) || src[p] == '.' ||
                       ((src[p] == '+' || src[p] == '-') &&
                        (src[p - 1] == 'e' || src[p - 1] == 'E' ||
                         src[p - 1] == 'p' || src[p - 1] == 'P')))) {
        ++p;
      }
      advance(p - i);
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
        c == '\v') {
      advance(1);
      continue;
    }
    out.tokens.push_back({Tok::kPunct, std::string(1, c), line, col});
    advance(1);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

struct Finding {
  int line;
  int col;
  std::string message;
  const char* check;
};

class Linter {
 public:
  Linter(std::string path, const std::set<std::string>* rules)
      : path_(std::move(path)), rules_(rules) {}

  std::vector<Finding> run(const LexedFile& file) {
    findings_.clear();
    check_alloc_in_hot_path(file.tokens);
    if (in_sim_layer()) check_wall_clock(file.tokens);
    if (rules_ != nullptr) check_diag_rules(file.tokens);
    if (!in_common()) check_raw_mutex(file.tokens);
    if (in_mpi_or_part()) check_atomic_spin(file.tokens);

    std::vector<Finding> kept;
    for (const Finding& f : findings_) {
      if (!suppressed(file.suppressions, f)) kept.push_back(f);
    }
    std::sort(kept.begin(), kept.end(), [](const Finding& a,
                                           const Finding& b) {
      return a.line != b.line ? a.line < b.line : a.col < b.col;
    });
    return kept;
  }

 private:
  bool path_has_dir(std::string_view dir) const {
    std::string prefix(dir);
    prefix += '/';
    std::string needle = "/";
    needle += prefix;
    return path_.find(needle) != std::string::npos ||
           path_.rfind(prefix, 0) == 0;
  }

  bool in_sim_layer() const {
    // src/backend is in scope even though shm/ibv are real-time: they must
    // read the clock through common::mono_now() (the audited exemption in
    // common/clock.hpp), never a raw chrono/libc source — and the DES
    // backend shares the directory, where a leak would corrupt replay.
    return path_has_dir("src/sim") || path_has_dir("src/fabric") ||
           path_has_dir("src/verbs") || path_has_dir("src/part") ||
           path_has_dir("src/backend");
  }

  bool in_common() const { return path_has_dir("src/common"); }

  bool in_mpi_or_part() const {
    return path_has_dir("src/mpi") || path_has_dir("src/part");
  }

  static bool suppressed(const std::vector<Suppression>& supp,
                         const Finding& f) {
    for (const Suppression& s : supp) {
      if (f.line < s.first_line || f.line > s.last_line) continue;
      if (s.checks.empty() || s.checks.count("*") != 0 ||
          s.checks.count(f.check) != 0) {
        return true;
      }
    }
    return false;
  }

  void add(const Token& at, std::string message, const char* check) {
    findings_.push_back({at.line, at.col, std::move(message), check});
  }

  // --- partib-no-alloc-in-hot-path ---------------------------------------
  //
  // A PARTIB_HOT marker introduces a hot function; its body is the first
  // top-level brace block before any ';' at paren depth zero (a ';' first
  // means the marker sat on a bodiless declaration).

  void check_alloc_in_hot_path(const std::vector<Token>& toks) {
    static const std::set<std::string> kAllocCalls = {
        "malloc",      "calloc",      "realloc",     "aligned_alloc",
        "posix_memalign", "strdup",   "make_unique", "make_shared"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Tok::kIdent || toks[i].text != "PARTIB_HOT") {
        continue;
      }
      // Skip the macro's own definition ('#define PARTIB_HOT ...' in
      // common/thread_annotations.hpp) — it marks nothing hot.
      if (i >= 2 && toks[i - 1].kind == Tok::kIdent &&
          toks[i - 1].text == "define" && toks[i - 2].kind == Tok::kPunct &&
          toks[i - 2].text == "#") {
        continue;
      }
      // Find the body start.
      std::size_t j = i + 1;
      int paren = 0;
      while (j < toks.size()) {
        const Token& t = toks[j];
        if (t.kind == Tok::kPunct) {
          if (t.text == "(") ++paren;
          if (t.text == ")") --paren;
          if (t.text == ";" && paren == 0) break;  // declaration only
          if (t.text == "{" && paren == 0) break;  // body
        }
        ++j;
      }
      if (j >= toks.size() || toks[j].text != "{") continue;
      // Walk the body.
      int depth = 0;
      for (; j < toks.size(); ++j) {
        const Token& t = toks[j];
        if (t.kind == Tok::kPunct) {
          if (t.text == "{") ++depth;
          if (t.text == "}" && --depth == 0) break;
          continue;
        }
        if (t.kind != Tok::kIdent) continue;
        if (t.text == "new") {
          add(t, "heap allocation ('new') inside a PARTIB_HOT function",
              kAllocCheck);
          continue;
        }
        if (kAllocCalls.count(t.text) != 0 && j + 1 < toks.size() &&
            toks[j + 1].kind == Tok::kPunct &&
            (toks[j + 1].text == "(" || toks[j + 1].text == "<")) {
          add(t,
              "heap allocation ('" + t.text +
                  "') inside a PARTIB_HOT function",
              kAllocCheck);
        }
      }
      i = j;
    }
  }

  // --- partib-no-wall-clock-in-sim ----------------------------------------

  void check_wall_clock(const std::vector<Token>& toks) {
    static const std::set<std::string> kBannedCalls = {
        "time", "rand", "srand", "clock", "gettimeofday", "drand48",
        "random"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != Tok::kIdent) continue;
      if (t.text == "system_clock" || t.text == "steady_clock" ||
          t.text == "high_resolution_clock") {
        add(t,
            "wall-clock source 'std::chrono::" + t.text +
                "' in the deterministic simulation layer; time comes from "
                "sim::Engine::now()",
            kWallClockCheck);
        continue;
      }
      if (kBannedCalls.count(t.text) == 0) continue;
      if (i + 1 >= toks.size() || toks[i + 1].kind != Tok::kPunct ||
          toks[i + 1].text != "(") {
        continue;  // not a call
      }
      // Reject member calls (x.time(), x->time()) and class-qualified
      // calls other than std:: (Engine::time() is somebody's method).
      if (i > 0 && toks[i - 1].kind == Tok::kPunct) {
        const std::string& p = toks[i - 1].text;
        if (p == "." || p == ">") continue;  // '.' or '->' (lexed .., > )
        if (p == ":") {
          const bool std_qualified =
              i >= 3 && toks[i - 2].kind == Tok::kPunct &&
              toks[i - 2].text == ":" && toks[i - 3].kind == Tok::kIdent &&
              toks[i - 3].text == "std";
          if (!std_qualified) continue;
        }
      }
      // Reject declarations: `Time time(...)` has an identifier (the
      // type) immediately before — but statement keywords are not types.
      static const std::set<std::string> kStmtKeywords = {
          "return", "co_return", "co_yield", "else", "do"};
      if (i > 0 && toks[i - 1].kind == Tok::kIdent &&
          kStmtKeywords.count(toks[i - 1].text) == 0) {
        continue;
      }
      add(t,
          "non-deterministic libc call '" + t.text +
              "()' in the simulation layer; use the DES clock or a seeded "
              "RNG",
          kWallClockCheck);
    }
  }

  // --- partib-diag-rule-registered ----------------------------------------

  void check_diag_rules(const std::vector<Token>& toks) {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != Tok::kIdent) continue;
      // check::report("rule.id", ...)
      if (t.text == "report" && i + 2 < toks.size() &&
          toks[i + 1].kind == Tok::kPunct && toks[i + 1].text == "(" &&
          toks[i + 2].kind == Tok::kString) {
        validate_rule(toks[i + 2]);
      }
      // Diagnostic::rule member assignment / initialisation.
      if (t.text == "rule" && i + 2 < toks.size() &&
          toks[i + 1].kind == Tok::kPunct && toks[i + 1].text == "=" &&
          toks[i + 2].kind == Tok::kString) {
        validate_rule(toks[i + 2]);
      }
    }
  }

  void validate_rule(const Token& lit) {
    if (rules_->count(lit.text) != 0) return;
    add(lit,
        "diagnostic names rule id '" + lit.text +
            "' which is not registered in src/check/rules.inc",
        kDiagRuleCheck);
  }

  // --- partib-mutex-wrapper-only ------------------------------------------

  void check_raw_mutex(const std::vector<Token>& toks) {
    static const std::set<std::string> kRawTypes = {
        "mutex",        "recursive_mutex",     "timed_mutex",
        "shared_mutex", "recursive_timed_mutex", "shared_timed_mutex",
        "condition_variable", "condition_variable_any"};
    if (toks.size() < 4) return;
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      if (toks[i].kind != Tok::kIdent || toks[i].text != "std") continue;
      if (toks[i + 1].kind != Tok::kPunct || toks[i + 1].text != ":") {
        continue;
      }
      if (toks[i + 2].kind != Tok::kPunct || toks[i + 2].text != ":") {
        continue;
      }
      if (toks[i + 3].kind == Tok::kIdent &&
          kRawTypes.count(toks[i + 3].text) != 0) {
        add(toks[i],
            "raw 'std::" + toks[i + 3].text +
                "' outside src/common/; use common::Mutex "
                "(common/mutex.hpp) so thread-safety annotations and the "
                "lock-order auditor see it",
            kMutexCheck);
      }
    }
  }

  // --- partib-no-raw-atomic-spin ------------------------------------------
  //
  // A producer thread that busy-waits on a std::atomic (or atomic_flag)
  // inside the MPI / partitioned layers is bypassing the claim/hand-off
  // contract: exactly-once ownership comes from one fetch_or on the claim
  // bitmap and completion flows back through the bridge's drain + arrival
  // mirror (runtime/sharded_engine.hpp), never from polling shared flags.
  // The lexer is type-blind, so this flags *any* member call to the
  // atomic wait-idiom methods inside a while/for/do-while condition.
  // That blindness is deliberate: `test` is also the MPI-style request
  // test, and spinning on that inside the library is just as wrong — the
  // single-threaded DES engine can make no progress while the caller
  // spins.  A justified exception carries a NOLINT with the reason.

  void check_atomic_spin(const std::vector<Token>& toks) {
    static const std::set<std::string> kSpinCalls = {
        "load",         "exchange",
        "test",         "test_and_set",
        "compare_exchange_weak", "compare_exchange_strong"};
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Tok::kIdent ||
          (toks[i].text != "while" && toks[i].text != "for")) {
        continue;
      }
      if (toks[i + 1].kind != Tok::kPunct || toks[i + 1].text != "(") {
        continue;
      }
      // Walk the balanced loop header (for a `for`, all three clauses:
      // re-reading an atomic each iteration is the same polling pattern
      // whichever clause it sits in).  `do { } while (cond);` lands here
      // too — the trailing `while (` scans the same way.
      int depth = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        const Token& t = toks[j];
        if (t.kind == Tok::kPunct) {
          if (t.text == "(") ++depth;
          if (t.text == ")" && --depth == 0) {
            i = j;
            break;
          }
          continue;
        }
        if (t.kind != Tok::kIdent || kSpinCalls.count(t.text) == 0) continue;
        if (j == 0 || j + 1 >= toks.size()) continue;
        // Member call only: preceded by '.' or '->', followed by '('.
        const Token& prev = toks[j - 1];
        const Token& next = toks[j + 1];
        const bool member =
            prev.kind == Tok::kPunct &&
            (prev.text == "." ||
             (prev.text == ">" && j >= 2 &&
              toks[j - 2].kind == Tok::kPunct && toks[j - 2].text == "-"));
        if (!member) continue;
        if (next.kind != Tok::kPunct || next.text != "(") continue;
        add(t,
            "raw atomic '" + t.text +
                "()' spin in a loop condition; producers hand off through "
                "the shard API (runtime::ShardedProgressEngine / "
                "ProducerHandle) instead of spinning",
            kAtomicSpinCheck);
      }
    }
  }

  std::string path_;
  const std::set<std::string>* rules_;
  std::vector<Finding> findings_;
};

// ---------------------------------------------------------------------------
// rules.inc parsing
// ---------------------------------------------------------------------------

std::optional<std::set<std::string>> load_rules(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  const LexedFile lexed = lex(ss.str());
  std::set<std::string> rules;
  const auto& toks = lexed.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind == Tok::kIdent && toks[i].text == "PARTIB_RULE" &&
        toks[i + 1].kind == Tok::kPunct && toks[i + 1].text == "(" &&
        toks[i + 2].kind == Tok::kString) {
      rules.insert(toks[i + 2].text);
    }
  }
  return rules;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::set<std::string>> rules;
  std::string as_path;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--rules=", 0) == 0) {
      rules = load_rules(std::string(arg.substr(8)));
      if (!rules) {
        std::fprintf(stderr, "partib_lint: cannot read rules file '%s'\n",
                     std::string(arg.substr(8)).c_str());
        return 2;
      }
    } else if (arg.rfind("--as-path=", 0) == 0) {
      as_path = std::string(arg.substr(10));
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: partib_lint [--rules=<rules.inc>] [--as-path=<virtual "
          "path>] <file>...\n");
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "partib_lint: unknown flag '%s'\n", argv[i]);
      return 2;
    } else {
      files.emplace_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "partib_lint: no input files\n");
    return 2;
  }
  if (!as_path.empty() && files.size() != 1) {
    std::fprintf(stderr,
                 "partib_lint: --as-path requires exactly one input file\n");
    return 2;
  }

  bool any = false;
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "partib_lint: cannot read '%s'\n", file.c_str());
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const LexedFile lexed = lex(ss.str());
    const std::string display = as_path.empty() ? file : as_path;
    Linter linter(display, rules ? &*rules : nullptr);
    for (const Finding& f : linter.run(lexed)) {
      std::printf("%s:%d:%d: warning: %s [%s]\n", display.c_str(), f.line,
                  f.col, f.message.c_str(), f.check);
      any = true;
    }
  }
  return any ? 1 : 0;
}
