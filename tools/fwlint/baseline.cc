#include "tools/fwlint/baseline.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

#include "src/base/strings.h"

namespace fwlint {
namespace {

// Minimal scanner for the subset SerializeBaseline emits.
class Scanner {
 public:
  explicit Scanner(const std::string& text) : s_(text) {}

  void SkipWs() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
                              s_[i_] == '\r')) {
      ++i_;
    }
  }

  bool Eat(char c) {
    SkipWs();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  bool Peek(char c) {
    SkipWs();
    return i_ < s_.size() && s_[i_] == c;
  }

  bool String(std::string* out) {
    SkipWs();
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\' && i_ < s_.size()) {
        char e = s_[i_++];
        switch (e) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case 'u': {  // only \u00XX forms are ever emitted
            if (i_ + 4 > s_.size()) return false;
            int v = 0;
            for (int k = 0; k < 4; ++k) {
              char h = s_[i_++];
              v <<= 4;
              if (h >= '0' && h <= '9') v |= h - '0';
              else if (h >= 'a' && h <= 'f') v |= h - 'a' + 10;
              else if (h >= 'A' && h <= 'F') v |= h - 'A' + 10;
              else return false;
            }
            out->push_back(static_cast<char>(v));
            break;
          }
          default: return false;
        }
      } else {
        out->push_back(c);
      }
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // closing quote
    return true;
  }

  bool Int(int* out) {
    SkipWs();
    size_t start = i_;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
    if (i_ == start) return false;
    *out = std::stoi(s_.substr(start, i_ - start));
    return true;
  }

  bool AtEnd() {
    SkipWs();
    return i_ >= s_.size();
  }

 private:
  const std::string& s_;
  size_t i_ = 0;
};

std::string Key(const std::string& file, const std::string& check, const std::string& msg) {
  return file + "|" + check + "|" + msg;
}

}  // namespace

bool ParseBaseline(const std::string& text, Baseline* out, std::string* error) {
  out->entries.clear();
  Scanner sc(text);
  auto fail = [&](const char* what) {
    if (error != nullptr) *error = std::string("baseline: ") + what;
    return false;
  };
  if (!sc.Eat('{')) return fail("expected '{'");
  bool saw_findings = false;
  bool saw_version = false;
  while (!sc.Peek('}')) {
    std::string field;
    if (!sc.String(&field) || !sc.Eat(':')) return fail("expected \"field\":");
    if (field == "version") {
      int v = 0;
      if (!sc.Int(&v)) return fail("bad version");
      if (v != 1) return fail("unsupported version (want 1)");
      saw_version = true;
    } else if (field == "findings") {
      saw_findings = true;
      if (!sc.Eat('[')) return fail("expected '[' after \"findings\"");
      while (!sc.Peek(']')) {
        if (!sc.Eat('{')) return fail("expected '{' starting an entry");
        BaselineEntry e;
        bool have_count = false;
        while (!sc.Peek('}')) {
          std::string k, v;
          if (!sc.String(&k) || !sc.Eat(':')) return fail("expected entry field");
          if (k == "count") {
            if (!sc.Int(&e.count)) return fail("bad count");
            have_count = true;
          } else if (!sc.String(&v)) {
            return fail("expected string value");
          } else if (k == "file") {
            e.file = v;
          } else if (k == "check") {
            e.check = v;
          } else if (k == "message") {
            e.message = v;
          } else {
            return fail("unknown entry field");
          }
          if (!sc.Eat(',') && !sc.Peek('}')) return fail("expected ',' or '}'");
        }
        sc.Eat('}');
        if (e.file.empty() || e.check.empty() || e.message.empty() || !have_count ||
            e.count <= 0) {
          return fail("entry missing file/check/message/count");
        }
        out->entries.push_back(std::move(e));
        if (!sc.Eat(',') && !sc.Peek(']')) return fail("expected ',' or ']'");
      }
      sc.Eat(']');
    } else {
      return fail("unknown top-level field");
    }
    if (!sc.Eat(',') && !sc.Peek('}')) return fail("expected ',' or '}'");
  }
  sc.Eat('}');
  if (!sc.AtEnd()) return fail("trailing content");
  if (!saw_version) return fail("missing \"version\"");
  if (!saw_findings) return fail("missing \"findings\"");
  return true;
}

std::string SerializeBaseline(const std::vector<Diagnostic>& diags) {
  std::map<std::tuple<std::string, std::string, std::string>, int> counts;
  for (const Diagnostic& d : diags) {
    if (d.check == "stale-suppression") {
      continue;  // staleness is reported live, never baselined
    }
    ++counts[{d.file, d.check, d.message}];
  }
  std::ostringstream os;
  os << "{\n  \"version\": 1,\n  \"findings\": [";
  bool first = true;
  for (const auto& [key, n] : counts) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"file\": " << fwbase::JsonQuote(std::get<0>(key))
       << ", \"check\": " << fwbase::JsonQuote(std::get<1>(key)) << ", \"count\": " << n
       << ", \"message\": " << fwbase::JsonQuote(std::get<2>(key)) << "}";
  }
  os << (first ? "]\n}\n" : "\n  ]\n}\n");
  return os.str();
}

BaselineDiff DiffAgainstBaseline(const std::vector<Diagnostic>& diags, const Baseline& base) {
  std::map<std::string, int> budget;
  for (const BaselineEntry& e : base.entries) {
    budget[Key(e.file, e.check, e.message)] += e.count;
  }
  BaselineDiff diff;
  // diags arrive sorted by (file, line, check); consuming budget in order
  // makes the *last* instances of an over-budget key the fresh ones.
  for (const Diagnostic& d : diags) {
    if (d.check == "stale-suppression") {
      diff.fresh.push_back(d);  // never baselined, always fresh
      continue;
    }
    auto it = budget.find(Key(d.file, d.check, d.message));
    if (it != budget.end() && it->second > 0) {
      --it->second;
    } else {
      diff.fresh.push_back(d);
    }
  }
  for (const BaselineEntry& e : base.entries) {
    auto it = budget.find(Key(e.file, e.check, e.message));
    if (it != budget.end() && it->second > 0) {
      BaselineEntry fixed = e;
      fixed.count = it->second;
      diff.fixed.push_back(std::move(fixed));
      it->second = 0;  // report each key once even if split across entries
    }
  }
  return diff;
}

std::string DebtReport(const std::vector<SuppressionSite>& sites, const Baseline& base,
                       const BaselineDiff& diff) {
  std::map<std::string, int> per_check;
  int total = 0;
  for (const BaselineEntry& e : base.entries) {
    per_check[e.check] += e.count;
    total += e.count;
  }
  std::ostringstream os;
  os << "fwlint suppression-debt report\n"
     << "==============================\n\n"
     << "Baselined findings: " << total << "\n";
  for (const auto& [check, n] : per_check) {
    os << "  " << check << ": " << n << "\n";
  }
  int stale = 0;
  for (const SuppressionSite& s : sites) {
    if (s.stale) ++stale;
  }
  os << "\nInline fwlint:allow sites: " << sites.size() << " (" << stale << " stale)\n";
  for (const SuppressionSite& s : sites) {
    os << "  " << s.file << ":" << s.line << " allow(" << s.check << ")"
       << (s.stale ? "  [STALE: matches no finding]" : "") << "\n";
  }
  if (!diff.fixed.empty()) {
    os << "\nPaid-down baseline entries (regenerate to drop them):\n";
    for (const BaselineEntry& e : diff.fixed) {
      os << "  " << e.file << " [" << e.check << "] x" << e.count << ": " << e.message
         << "\n";
    }
  }
  os << "\nRegenerate with: scripts/fwlint_baseline.py (or fwlint --root=. "
        "--write-baseline=tools/fwlint/baseline.json)\n";
  return os.str();
}

}  // namespace fwlint
