#pragma once

/// \file cli_parse.h
/// The shared CLI surface of the apf_* tools: loud numeric parsing plus
/// the declarative ArgParser every binary's --flag handling and --help is
/// generated from. Every flag rejects garbage, trailing junk, and
/// out-of-domain values with a clear message and exit code 2 (usage
/// error) instead of surfacing a bare std::stod exception — or worse,
/// atof's silent 0.0, which once turned a mistyped threshold into
/// "compare everything against zero".
///
/// Exit-code conventions (ALL apf_* tools; documented once here and in
/// docs/API.md instead of drifting per binary):
///   0  success
///   1  domain failure (run unsuccessful, campaign quarantined runs,
///      regression found, violation did not reproduce, ...)
///   2  usage error: unknown flag, malformed value, unreadable or
///      wrong-schema input (cross-version refusal)
///   3  watchdog expiry on a single supervised run
///   4  campaign journal lock held by another process (apf_sim
///      --journal/--resume; retry once that process has exited)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace apf::cli {

[[noreturn]] inline void badValue(const char* tool, const char* flag,
                                  const char* got, const char* want) {
  std::fprintf(stderr, "%s: %s expects %s, got '%s'\n", tool, flag, want,
               got);
  std::exit(2);
}

inline double parseDouble(const char* tool, const char* flag, const char* s) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != std::strlen(s)) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    badValue(tool, flag, s, "a number");
  }
}

inline double parseNonNegative(const char* tool, const char* flag,
                               const char* s) {
  const double v = parseDouble(tool, flag, s);
  if (v < 0.0 || !(v == v)) badValue(tool, flag, s, "a non-negative number");
  return v;
}

/// Probability in the closed interval [0, 1].
inline double parseProb(const char* tool, const char* flag, const char* s) {
  const double v = parseDouble(tool, flag, s);
  if (v < 0.0 || v > 1.0 || !(v == v)) {
    badValue(tool, flag, s, "a probability in [0, 1]");
  }
  return v;
}

/// Confidence level in the OPEN interval (0, 1) — 0 and 1 make every
/// interval degenerate or vacuous, so they are usage errors, not settings.
inline double parseConfidence(const char* tool, const char* flag,
                              const char* s) {
  const double v = parseDouble(tool, flag, s);
  if (!(v > 0.0 && v < 1.0)) {
    badValue(tool, flag, s, "a confidence level in (0, 1)");
  }
  return v;
}

inline std::uint64_t parseU64(const char* tool, const char* flag,
                              const char* s) {
  if (s[0] == '-') badValue(tool, flag, s, "a non-negative integer");
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(s, &pos);
    if (pos != std::strlen(s)) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    badValue(tool, flag, s, "a non-negative integer");
  }
}

/// Declarative argv parser: each tool registers its flags (with targets,
/// metavars, and help text), and parse() handles `--flag value` pairs,
/// unknown-flag/missing-value errors (exit 2), and a generated --help —
/// one implementation instead of four hand-rolled drifting loops.
///
///   cli::ArgParser args("apf_sim", "LCM robot simulator ...");
///   args.u64("--seed", &o.seed, "S", "RNG seed (default 1)");
///   args.flag("--json", &o.json, "print one JSON line");
///   args.parse(argc, argv);
class ArgParser {
 public:
  /// Value domains for numeric flags, enforced at parse time with the loud
  /// parse* helpers above.
  enum class Num {
    Any,          ///< any double
    NonNegative,  ///< >= 0
    Probability,  ///< [0, 1]
    Confidence,   ///< (0, 1) open
  };

  ArgParser(std::string tool, std::string oneLiner)
      : tool_(std::move(tool)), oneLiner_(std::move(oneLiner)) {
    sections_.push_back("options");
  }

  /// Starts a new --help section; flags registered after land under it.
  void section(std::string title) { sections_.push_back(std::move(title)); }

  /// Free text printed at the end of --help (examples, exit codes).
  void notes(std::string text) { notes_ = std::move(text); }

  void flag(const char* name, bool* target, std::string help) {
    add(name, Kind::Bool, target, "", std::move(help), nullptr);
  }
  void str(const char* name, std::string* target, const char* metavar,
           std::string help, bool* seen = nullptr) {
    add(name, Kind::String, target, metavar, std::move(help), seen);
  }
  void u64(const char* name, std::uint64_t* target, const char* metavar,
           std::string help, bool* seen = nullptr, bool positive = false) {
    Spec& s = add(name, Kind::U64, target, metavar, std::move(help), seen);
    s.positive = positive;
  }
  void intNonNegative(const char* name, int* target, const char* metavar,
                      std::string help, bool positive = false) {
    Spec& s =
        add(name, Kind::Int, target, metavar, std::move(help), nullptr);
    s.positive = positive;
  }
  void num(const char* name, double* target, Num domain, const char* metavar,
           std::string help) {
    Spec& s =
        add(name, Kind::Double, target, metavar, std::move(help), nullptr);
    s.domain = domain;
  }

  /// Declares positional arguments (default: none allowed).
  void positionals(const char* metavar, std::string help, std::size_t min,
                   std::size_t max) {
    posMeta_ = metavar;
    posHelp_ = std::move(help);
    posMin_ = min;
    posMax_ = max;
  }

  const std::vector<std::string>& pos() const { return pos_; }

  /// Parses argv. Exits 0 on --help/-h, 2 on any usage error.
  void parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
        printHelp(stdout);
        std::exit(0);
      }
      Spec* spec = findSpec(a);
      if (spec == nullptr) {
        if (a[0] == '-' && a[1] != '\0') {
          std::fprintf(stderr, "%s: unknown option '%s' (try --help)\n",
                       tool_.c_str(), a);
          std::exit(2);
        }
        pos_.push_back(a);
        if (pos_.size() > posMax_) {
          std::fprintf(stderr, "%s: unexpected argument '%s' (try --help)\n",
                       tool_.c_str(), a);
          std::exit(2);
        }
        continue;
      }
      if (spec->kind == Kind::Bool) {
        *static_cast<bool*>(spec->target) = true;
        if (spec->seen != nullptr) *spec->seen = true;
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s (want %s)\n",
                     tool_.c_str(), spec->name.c_str(),
                     spec->metavar.c_str());
        std::exit(2);
      }
      const char* value = argv[++i];
      apply(*spec, value);
      if (spec->seen != nullptr) *spec->seen = true;
    }
    if (pos_.size() < posMin_) {
      std::fprintf(stderr, "%s: missing %s argument (try --help)\n",
                   tool_.c_str(), posMeta_.c_str());
      std::exit(2);
    }
  }

  void printHelp(std::FILE* out) const {
    std::fprintf(out, "usage: %s [options]%s\n%s\n", tool_.c_str(),
                 posMax_ > 0 ? (" " + posMeta_).c_str() : "",
                 oneLiner_.c_str());
    if (posMax_ > 0 && !posHelp_.empty()) {
      std::fprintf(out, "\n  %-*s %s\n", static_cast<int>(columnWidth()),
                   posMeta_.c_str(), posHelp_.c_str());
    }
    const std::size_t width = columnWidth();
    for (std::size_t s = 0; s < sections_.size(); ++s) {
      bool any = false;
      for (const Spec& spec : specs_) {
        if (spec.section != s) continue;
        if (!any) {
          std::fprintf(out, "\n%s:\n", sections_[s].c_str());
          any = true;
        }
        const std::string head = headOf(spec);
        // Help strings may be multi-line; continuation lines align under
        // the first.
        std::size_t start = 0;
        bool first = true;
        while (start <= spec.help.size()) {
          std::size_t nl = spec.help.find('\n', start);
          if (nl == std::string::npos) nl = spec.help.size();
          std::fprintf(out, "  %-*s %.*s\n", static_cast<int>(width),
                       first ? head.c_str() : "",
                       static_cast<int>(nl - start),
                       spec.help.c_str() + start);
          first = false;
          start = nl + 1;
        }
      }
    }
    if (!notes_.empty()) std::fprintf(out, "\n%s\n", notes_.c_str());
    std::fprintf(out,
                 "\nexit codes: 0 success, 1 domain failure, 2 usage error"
                 "%s\n(full conventions: tools/cli_parse.h, docs/API.md)\n",
                 exitNotes_.empty() ? "" : exitNotes_.c_str());
  }

  /// Appends tool-specific entries to the generated exit-code line, e.g.
  /// ", 3 watchdog expired".
  void exitNotes(std::string text) { exitNotes_ = std::move(text); }

 private:
  enum class Kind { Bool, String, U64, Int, Double };

  struct Spec {
    std::string name;
    Kind kind = Kind::Bool;
    void* target = nullptr;
    std::string metavar;
    std::string help;
    std::size_t section = 0;
    bool* seen = nullptr;
    bool positive = false;
    Num domain = Num::Any;
  };

  Spec& add(const char* name, Kind kind, void* target, const char* metavar,
            std::string help, bool* seen) {
    Spec s;
    s.name = name;
    s.kind = kind;
    s.target = target;
    s.metavar = metavar;
    s.help = std::move(help);
    s.section = sections_.size() - 1;
    s.seen = seen;
    specs_.push_back(std::move(s));
    return specs_.back();
  }

  Spec* findSpec(const char* arg) {
    for (Spec& s : specs_) {
      if (s.name == arg) return &s;
    }
    return nullptr;
  }

  std::string headOf(const Spec& s) const {
    return s.kind == Kind::Bool ? s.name : s.name + " " + s.metavar;
  }

  std::size_t columnWidth() const {
    std::size_t w = posMeta_.size();
    for (const Spec& s : specs_) w = std::max(w, headOf(s).size());
    return w;
  }

  void apply(Spec& spec, const char* value) {
    const char* tool = tool_.c_str();
    const char* name = spec.name.c_str();
    switch (spec.kind) {
      case Kind::Bool:
        break;  // handled by caller
      case Kind::String:
        *static_cast<std::string*>(spec.target) = value;
        break;
      case Kind::U64: {
        const std::uint64_t v = parseU64(tool, name, value);
        if (spec.positive && v == 0) {
          badValue(tool, name, value, "a positive integer");
        }
        *static_cast<std::uint64_t*>(spec.target) = v;
        break;
      }
      case Kind::Int: {
        const std::uint64_t v = parseU64(tool, name, value);
        if (spec.positive && v == 0) {
          badValue(tool, name, value, "a positive integer");
        }
        if (v > 1u << 30) {
          badValue(tool, name, value, "a sane integer");
        }
        *static_cast<int*>(spec.target) = static_cast<int>(v);
        break;
      }
      case Kind::Double: {
        double v = 0.0;
        switch (spec.domain) {
          case Num::Any:
            v = parseDouble(tool, name, value);
            break;
          case Num::NonNegative:
            v = parseNonNegative(tool, name, value);
            break;
          case Num::Probability:
            v = parseProb(tool, name, value);
            break;
          case Num::Confidence:
            v = parseConfidence(tool, name, value);
            break;
        }
        *static_cast<double*>(spec.target) = v;
        break;
      }
    }
  }

  std::string tool_;
  std::string oneLiner_;
  std::string notes_;
  std::string exitNotes_;
  std::vector<std::string> sections_;
  std::vector<Spec> specs_;
  std::vector<std::string> pos_;
  std::string posMeta_;
  std::string posHelp_;
  std::size_t posMin_ = 0;
  std::size_t posMax_ = 0;
};

}  // namespace apf::cli
