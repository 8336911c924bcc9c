#include "tools/fwlint/parser.h"

#include <algorithm>
#include <optional>
#include <set>

namespace fwlint {
namespace {

using Tokens = std::vector<Token>;

bool IsPunct(const Token& t, const char* p) { return t.kind == TokenKind::kPunct && t.text == p; }

// Keywords that can directly own a '(...)'-headed brace block.
bool IsControlKeyword(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" || s == "catch";
}

// Tokens that may legitimately appear inside a return type / decl-specifier
// sequence when walking a declaration header backwards.
bool IsDeclSpecifier(const std::string& s) {
  static const std::set<std::string> kSpecs = {
      "const",    "constexpr", "consteval", "constinit", "static", "inline",
      "virtual",  "explicit",  "friend",    "extern",    "typename", "mutable",
      "volatile", "unsigned",  "signed",    "struct",    "class",
  };
  return kSpecs.count(s) != 0;
}

// Identifier keywords that terminate a backward header walk: a declaration's
// return type never contains these.
bool EndsHeaderWalk(const std::string& s) {
  static const std::set<std::string> kEnders = {
      "return", "co_return", "co_await", "co_yield", "new",   "delete", "throw",
      "case",   "goto",      "operator", "sizeof",   "else",  "do",     "using",
      "namespace", "public", "private",  "protected", "if",   "for",    "while",
      "switch", "catch",     "define",   "include",   "ifdef", "ifndef", "elif",
      "endif",  "undef",     "pragma",   "error",
  };
  return kEnders.count(s) != 0;
}

// Finds the index of the '(' matching the ')' at `rp`, or npos.
size_t MatchOpenParen(const Tokens& t, size_t rp) {
  int depth = 0;
  for (size_t i = rp + 1; i-- > 0;) {
    if (t[i].kind != TokenKind::kPunct) continue;
    if (t[i].text == ")") ++depth;
    if (t[i].text == "(") {
      if (--depth == 0) return i;
    }
  }
  return static_cast<size_t>(-1);
}

// Finds the index just past the ')' matching the '(' at `lp` (or size()).
size_t MatchCloseParen(const Tokens& t, size_t lp) {
  int depth = 0;
  for (size_t i = lp; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kPunct) continue;
    if (t[i].text == "(") ++depth;
    if (t[i].text == ")") {
      if (--depth == 0) return i;
    }
  }
  return t.size();
}

// Finds the '}' matching the '{' at `open` (or size() when unclosed).
size_t MatchCloseBrace(const Tokens& t, size_t open) {
  int depth = 0;
  for (size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kPunct) continue;
    if (t[i].text == "{") ++depth;
    if (t[i].text == "}") {
      if (--depth == 0) return i;
    }
  }
  return t.size();
}

// Walks a balanced template argument list backwards: `i` points at the '>'
// (or '>>') that closes it. Returns the index of the opening '<', or npos if
// the walk degenerates (comparison operator, unbalanced, hits a hard stop).
size_t MatchOpenAngleBackward(const Tokens& t, size_t close) {
  int depth = 0;
  for (size_t i = close + 1; i-- > 0;) {
    if (t[i].kind != TokenKind::kPunct) continue;
    const std::string& p = t[i].text;
    if (p == ">") {
      ++depth;
    } else if (p == ">>") {
      depth += 2;
    } else if (p == "<") {
      if (--depth == 0) return i;
      if (depth < 0) return static_cast<size_t>(-1);
    } else if (p == ";" || p == "{" || p == "}") {
      return static_cast<size_t>(-1);
    }
  }
  return static_cast<size_t>(-1);
}

// Forward skip over a balanced '<...>' (mirrors fwlint.cc's TrySkipAngles).
std::optional<size_t> TrySkipAnglesFwd(const Tokens& t, size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kPunct) continue;
    const std::string& p = t[i].text;
    if (p == "<") {
      ++depth;
    } else if (p == ">") {
      if (--depth == 0) return i + 1;
    } else if (p == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (p == ";" || p == "{" || p == "}") {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

// True if `i` is a lambda introducer '['. Subscripts follow a value
// expression (identifier, ')', ']', string, number); introducers don't.
bool IsLambdaIntro(const Tokens& t, size_t i) {
  if (!IsPunct(t[i], "[")) return false;
  if (i + 1 < t.size() && IsPunct(t[i + 1], "[")) return false;  // [[attribute]]
  if (i > 0 && IsPunct(t[i - 1], "[")) return false;
  if (i == 0) return true;
  const Token& prev = t[i - 1];
  if (prev.kind == TokenKind::kIdentifier) {
    // `return [..]`, `co_await [..]`, `co_return [..]` start lambdas; a plain
    // identifier before '[' is a subscripted variable (or an array
    // declarator, which is not a lambda either).
    return prev.text == "return" || prev.text == "co_return" || prev.text == "co_await" ||
           prev.text == "case" || prev.text == "throw";
  }
  if (prev.kind == TokenKind::kNumber || prev.kind == TokenKind::kString) return false;
  if (prev.kind == TokenKind::kPunct && (prev.text == ")" || prev.text == "]")) return false;
  return prev.kind == TokenKind::kPunct;
}

// Scans a lambda starting at introducer `i`. Fills `info` and returns the
// token index of the lambda's body '{' if one is found (npos otherwise —
// recovery: treat as not-a-lambda).
size_t ScanLambda(const Tokens& t, size_t i, LambdaInfo& info) {
  info.intro = i;
  info.line = t[i].line;
  // Capture list: up to the matching ']' (balancing nested '[' from
  // init-capture expressions like [x = a[0]]).
  int depth = 0;
  size_t j = i;
  for (; j < t.size(); ++j) {
    if (t[j].kind != TokenKind::kPunct) continue;
    if (t[j].text == "[") ++depth;
    if (t[j].text == "]") {
      if (--depth == 0) break;
    }
  }
  if (j >= t.size()) return static_cast<size_t>(-1);
  // Top-level '&' entries: '&' right after '[' or ',' is a by-ref capture.
  for (size_t k = i + 1; k < j; ++k) {
    if (!IsPunct(t[k], "&")) continue;
    if (!(IsPunct(t[k - 1], "[") || IsPunct(t[k - 1], ","))) continue;
    if (k + 1 < j && t[k + 1].kind == TokenKind::kIdentifier) {
      info.ref_captures.push_back(t[k + 1].text);
    } else {
      info.captures_default_ref = true;
    }
  }
  // Optional parameter list, specifiers, trailing return type, then '{'.
  size_t k = j + 1;
  if (k < t.size() && IsPunct(t[k], "(")) {
    k = MatchCloseParen(t, k);
    if (k >= t.size()) return static_cast<size_t>(-1);
    ++k;
  }
  while (k < t.size()) {
    const Token& tok = t[k];
    if (tok.kind == TokenKind::kIdentifier &&
        (tok.text == "mutable" || tok.text == "constexpr" || tok.text == "noexcept")) {
      ++k;
      if (k < t.size() && IsPunct(t[k], "(")) {  // noexcept(expr)
        k = MatchCloseParen(t, k);
        if (k >= t.size()) return static_cast<size_t>(-1);
        ++k;
      }
      continue;
    }
    if (IsPunct(tok, "->")) {  // trailing return type: skip to the '{'
      ++k;
      while (k < t.size() && !IsPunct(t[k], "{") && !IsPunct(t[k], ";") && !IsPunct(t[k], ")")) {
        if (IsPunct(t[k], "<")) {
          std::optional<size_t> after = TrySkipAnglesFwd(t, k);
          if (!after.has_value()) return static_cast<size_t>(-1);
          k = *after;
          continue;
        }
        ++k;
      }
      continue;
    }
    break;
  }
  if (k >= t.size() || !IsPunct(t[k], "{")) return static_cast<size_t>(-1);
  info.has_body = true;
  info.body_open = k;
  info.body_close = MatchCloseBrace(t, k);
  // is_coroutine is filled in by Parse() pass 5, once the block tree can
  // attribute each co_* token to its innermost callable.
  return k;
}

// Parses one parameter declaration (the token range of a single top-level
// comma-separated piece of a parameter list).
Param ParseParam(const Tokens& t, size_t begin, size_t end) {
  Param p;
  if (begin < end) p.line = t[begin].line;
  // Cut a default argument off: name sits just before the top-level '='.
  size_t stop = end;
  {
    int depth = 0;
    for (size_t i = begin; i < end; ++i) {
      if (t[i].kind != TokenKind::kPunct) continue;
      const std::string& s = t[i].text;
      if (s == "(" || s == "<" || s == "[" || s == "{") ++depth;
      if (s == ")" || s == ">" || s == "]" || s == "}") --depth;
      if (s == "=" && depth == 0) {
        stop = i;
        break;
      }
    }
  }
  // Declarator flags at top level (outside template args).
  int depth = 0;
  for (size_t i = begin; i < stop; ++i) {
    const Token& tok = t[i];
    if (tok.kind == TokenKind::kPunct) {
      const std::string& s = tok.text;
      if (s == "<" || s == "(" || s == "[") ++depth;
      if (s == ">" || s == ")" || s == "]") --depth;
      if (s == ">>") depth -= 2;
      if (depth == 0 && (s == "&" || s == "&&")) p.is_ref = true;
      if (depth == 0 && s == "*") p.is_ptr = true;
    } else if (tok.kind == TokenKind::kIdentifier) {
      if (tok.text == "string_view" || tok.text == "span") p.is_view = true;
    }
  }
  if (p.is_ref || p.is_ptr) p.is_view = false;  // span<..>& is a ref first
  // Name: the last identifier of the declarator, unless it is the whole type
  // (unnamed parameter like `int` or `const Foo&` — then the "name" token is
  // directly preceded by nothing or a specifier and followed by nothing, and
  // there is no other identifier; we accept a small mis-parse envelope here).
  size_t name_pos = static_cast<size_t>(-1);
  if (stop > begin) {
    size_t last = stop - 1;
    // Walk back over array declarators `name[4]`.
    while (last > begin && IsPunct(t[last], "]")) {
      while (last > begin && !IsPunct(t[last], "[")) --last;
      if (last > begin) --last;
    }
    if (t[last].kind == TokenKind::kIdentifier && !(last > begin && IsPunct(t[last - 1], "::"))) {
      // A single-token piece is a bare type name, not a parameter name.
      if (last != begin) {
        name_pos = last;
      }
    }
  }
  for (size_t i = begin; i < stop; ++i) {
    if (i == name_pos) continue;
    p.type.push_back(t[i].text);
  }
  if (name_pos != static_cast<size_t>(-1)) {
    p.name = t[name_pos].text;
    p.line = t[name_pos].line;
  }
  return p;
}

// True when the type token list names a given template head (e.g. "Co" then
// "<"), at any qualification.
bool TypeMentionsTemplate(const std::vector<std::string>& type, const char* head) {
  for (size_t i = 0; i + 1 < type.size(); ++i) {
    if (type[i] == head && type[i + 1] == "<") return true;
  }
  return false;
}

// Attempts to recognise a function declaration/definition whose parameter
// list opens at `lp`. On success appends to `out` and returns true.
bool TryParseFunctionAt(const Tokens& t, size_t lp, const std::set<size_t>& lambda_bodies,
                        std::vector<FunctionInfo>& out) {
  if (lp == 0 || !IsPunct(t[lp], "(")) return false;
  size_t name_pos = lp - 1;
  if (t[name_pos].kind != TokenKind::kIdentifier) return false;
  const std::string& name = t[name_pos].text;
  if (IsControlKeyword(name) || EndsHeaderWalk(name) || IsDeclSpecifier(name)) return false;
  if (name == "decltype" || name == "alignof" || name == "alignas" || name == "noexcept" ||
      name == "static_assert" || name == "sizeof" || name == "typeid") {
    return false;
  }

  // Qualifiers: A::B::name.
  size_t head = name_pos;
  std::string qualified = name;
  while (head >= 2 && IsPunct(t[head - 1], "::") && t[head - 2].kind == TokenKind::kIdentifier) {
    qualified = t[head - 2].text + "::" + qualified;
    head -= 2;
  }

  // Return type: walk backwards collecting type tokens. An empty walk means
  // this is a call (or a constructor), not a declaration we track.
  std::vector<std::string> type;  // collected in reverse
  size_t i = head;
  while (i > 0) {
    const Token& tok = t[i - 1];
    if (tok.kind == TokenKind::kIdentifier) {
      if (EndsHeaderWalk(tok.text)) break;
      type.push_back(tok.text);
      --i;
      continue;
    }
    if (tok.kind != TokenKind::kPunct) break;
    const std::string& s = tok.text;
    if (s == "::" || s == "*" || s == "&" || s == "&&") {
      type.push_back(s);
      --i;
      continue;
    }
    if (s == ">" || s == ">>") {
      const size_t open = MatchOpenAngleBackward(t, i - 1);
      if (open == static_cast<size_t>(-1)) break;
      for (size_t k = i; k-- > open;) {
        type.push_back(t[k].text);
      }
      i = open;
      continue;
    }
    if (s == "]") {  // attribute [[nodiscard]] etc: skip the bracket group
      size_t k = i - 1;
      int depth = 0;
      while (k + 1 > 0) {
        if (IsPunct(t[k], "]")) ++depth;
        if (IsPunct(t[k], "[")) {
          if (--depth == 0) break;
        }
        if (k == 0) break;
        --k;
      }
      if (depth != 0) break;
      i = k;
      continue;
    }
    break;
  }
  std::reverse(type.begin(), type.end());
  // Drop pure specifiers; what remains must still name a type.
  std::vector<std::string> core;
  for (const std::string& s : type) {
    if (!IsDeclSpecifier(s)) core.push_back(s);
  }
  if (core.empty()) return false;
  // A walk that stopped at '#' territory (preprocessor directive) shows up as
  // `define`/`include` enders already; a comma before the type means we are
  // mid-argument-list of a call — reject.
  if (i > 0 && (IsPunct(t[i - 1], ",") || IsPunct(t[i - 1], "(") || IsPunct(t[i - 1], "<") ||
                IsPunct(t[i - 1], "=") || IsPunct(t[i - 1], "?") || IsPunct(t[i - 1], ".") ||
                IsPunct(t[i - 1], "->") || IsPunct(t[i - 1], "+") || IsPunct(t[i - 1], "-") ||
                IsPunct(t[i - 1], "!") || IsPunct(t[i - 1], "|") || IsPunct(t[i - 1], "||") ||
                IsPunct(t[i - 1], "&&"))) {
    return false;
  }
  // ':' before the type is expression context (ternary, range-for, label) —
  // unless it follows an access specifier, where declarations are expected.
  if (i > 0 && IsPunct(t[i - 1], ":") &&
      !(i > 1 && (t[i - 2].ident("public") || t[i - 2].ident("protected") ||
                  t[i - 2].ident("private")))) {
    return false;
  }

  const size_t rp = MatchCloseParen(t, lp);
  if (rp >= t.size()) return false;

  // Trailer: const/noexcept/override/final/&-qualifiers, then body or ';'.
  size_t k = rp + 1;
  while (k < t.size()) {
    const Token& tok = t[k];
    if (tok.kind == TokenKind::kIdentifier &&
        (tok.text == "const" || tok.text == "noexcept" || tok.text == "override" ||
         tok.text == "final" || tok.text == "mutable")) {
      ++k;
      if (k < t.size() && IsPunct(t[k], "(")) {
        k = MatchCloseParen(t, k);
        if (k >= t.size()) return false;
        ++k;
      }
      continue;
    }
    if (tok.kind == TokenKind::kPunct && (tok.text == "&" || tok.text == "&&")) {
      ++k;
      continue;
    }
    break;
  }
  FunctionInfo fn;
  if (k < t.size() && IsPunct(t[k], "{")) {
    if (lambda_bodies.count(k) != 0) return false;  // that '{' belongs to a lambda
    fn.has_body = true;
    fn.body_open = k;
    fn.body_close = MatchCloseBrace(t, k);
  } else if (k < t.size() && IsPunct(t[k], ";")) {
    fn.has_body = false;
  } else if (k + 1 < t.size() && IsPunct(t[k], "=") &&
             (t[k + 1].ident("default") || t[k + 1].ident("delete") ||
              (t[k + 1].kind == TokenKind::kNumber && t[k + 1].text == "0"))) {
    fn.has_body = false;
  } else {
    return false;  // an expression call, an initialiser, a macro invocation…
  }

  fn.name = name;
  fn.qualified = qualified;
  fn.line = t[name_pos].line;
  fn.name_pos = name_pos;
  fn.params_open = lp;
  fn.params_close = rp;
  fn.returns_co = TypeMentionsTemplate(core, "Co");

  // Parameters: split (lp, rp) on top-level commas.
  {
    int depth = 0;
    size_t piece_begin = lp + 1;
    for (size_t p = lp + 1; p <= rp; ++p) {
      const bool at_end = (p == rp);
      bool split = at_end;
      if (!at_end && t[p].kind == TokenKind::kPunct) {
        const std::string& s = t[p].text;
        if (s == "(" || s == "<" || s == "[" || s == "{") ++depth;
        if (s == ")" || s == ">" || s == "]" || s == "}") --depth;
        if (s == ">>") depth -= 2;
        if (s == "," && depth == 0) split = true;
      }
      if (split) {
        if (p > piece_begin) {
          Param param = ParseParam(t, piece_begin, p);
          if (!(param.type.size() == 1 && param.type[0] == "void" && param.name.empty())) {
            fn.params.push_back(std::move(param));
          }
        }
        piece_begin = p + 1;
      }
    }
  }

  // is_coroutine / awaits are filled in by Parse() pass 5, once the block
  // tree can attribute each co_* token to its innermost callable.
  out.push_back(std::move(fn));
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Block tree construction
// ---------------------------------------------------------------------------

ParseResult Parse(const std::vector<Token>& t) {
  ParseResult r;
  r.block_of.assign(t.size(), -1);

  // Pass 1: lambdas (their body braces pre-classify blocks in pass 2).
  std::set<size_t> lambda_bodies;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsLambdaIntro(t, i)) continue;
    LambdaInfo info;
    const size_t body = ScanLambda(t, i, info);
    if (body != static_cast<size_t>(-1)) {
      lambda_bodies.insert(body);
      r.lambdas.push_back(std::move(info));
    }
  }

  // Pass 2: functions (parameter-list candidates, validated backwards).
  for (size_t i = 0; i < t.size(); ++i) {
    if (IsPunct(t[i], "(")) {
      TryParseFunctionAt(t, i, lambda_bodies, r.functions);
    }
  }
  std::set<size_t> function_bodies;
  for (const FunctionInfo& fn : r.functions) {
    if (fn.has_body) function_bodies.insert(fn.body_open);
  }

  // Pass 3: the block tree. Classify each '{' by what precedes it.
  std::vector<int> stack;
  // For if/else sibling linking: the block index of the most recently closed
  // block at each nesting depth.
  std::vector<int> last_closed_at_depth(1, -1);
  for (size_t i = 0; i < t.size(); ++i) {
    const int current = stack.empty() ? -1 : stack.back();
    if (!IsPunct(t[i], "{")) {
      if (IsPunct(t[i], "}")) {
        if (!stack.empty()) {
          const int b = stack.back();
          r.blocks[static_cast<size_t>(b)].close = i;
          r.block_of[i] = b;
          stack.pop_back();
          if (stack.size() + 1 < last_closed_at_depth.size()) {
            last_closed_at_depth.resize(stack.size() + 1);
          }
          last_closed_at_depth[stack.size()] = b;
        }
        continue;
      }
      r.block_of[i] = current;
      continue;
    }

    Block blk;
    blk.open = i;
    blk.close = t.size();
    blk.parent = current;
    blk.kind = BlockKind::kPlain;

    if (lambda_bodies.count(i) != 0) {
      blk.kind = BlockKind::kLambda;
    } else if (function_bodies.count(i) != 0) {
      blk.kind = BlockKind::kFunction;
    } else if (i > 0) {
      const Token& prev = t[i - 1];
      if (prev.kind == TokenKind::kIdentifier) {
        const std::string& s = prev.text;
        if (s == "else") {
          blk.kind = BlockKind::kElse;
        } else if (s == "do") {
          blk.kind = BlockKind::kLoop;
        } else if (s == "try") {
          blk.kind = BlockKind::kTry;
        } else {
          // `struct Foo {`, `namespace bar {`, `enum class E {`…: walk back
          // over identifiers/::/<>/base-clause tokens to the introducing
          // keyword.
          size_t k = i;
          BlockKind found = BlockKind::kPlain;
          while (k > 0) {
            const Token& tok = t[k - 1];
            if (tok.kind == TokenKind::kIdentifier) {
              if (tok.text == "struct" || tok.text == "class" || tok.text == "union" ||
                  tok.text == "enum") {
                found = BlockKind::kClass;
                break;
              }
              if (tok.text == "namespace") {
                found = BlockKind::kNamespace;
                break;
              }
              if (EndsHeaderWalk(tok.text) || IsControlKeyword(tok.text)) break;
              --k;
              continue;
            }
            if (tok.kind == TokenKind::kPunct &&
                (tok.text == "::" || tok.text == ":" || tok.text == "," || tok.text == "<" ||
                 tok.text == ">" || tok.text == ">>")) {
              --k;
              continue;
            }
            break;
          }
          blk.kind = found;
        }
      } else if (IsPunct(prev, ")")) {
        const size_t open = MatchOpenParen(t, i - 1);
        if (open != static_cast<size_t>(-1) && open > 0 &&
            t[open - 1].kind == TokenKind::kIdentifier) {
          const std::string& kw = t[open - 1].text;
          if (kw == "for" || kw == "while") {
            blk.kind = BlockKind::kLoop;
          } else if (kw == "if") {
            blk.kind = BlockKind::kIf;
          } else if (kw == "switch") {
            blk.kind = BlockKind::kSwitch;
          } else if (kw == "catch") {
            blk.kind = BlockKind::kCatch;
          }
        }
      }
    }

    const int idx = static_cast<int>(r.blocks.size());
    if (blk.kind == BlockKind::kElse) {
      // Link to the just-closed then-arm at this same depth.
      if (stack.size() < last_closed_at_depth.size()) {
        const int prev_block = last_closed_at_depth[stack.size()];
        if (prev_block >= 0 &&
            r.blocks[static_cast<size_t>(prev_block)].kind == BlockKind::kIf) {
          blk.sibling = prev_block;
          r.blocks[static_cast<size_t>(prev_block)].sibling = idx;
        }
      }
    }
    r.blocks.push_back(blk);
    r.block_of[i] = idx;
    stack.push_back(idx);
    if (last_closed_at_depth.size() < stack.size() + 1) {
      last_closed_at_depth.resize(stack.size() + 1, -1);
    }
  }

  // Pass 4: flow-severing statements for Reaches(). An exit is recorded at
  // its statement's end, not its keyword: `return f(x);` still evaluates its
  // operands, so only tokens after the ';' are unreachable through it.
  for (size_t i = 0; i < t.size(); ++i) {
    if (!(t[i].ident("return") || t[i].ident("co_return") || t[i].ident("throw") ||
          t[i].ident("continue"))) {
      continue;
    }
    int depth = 0;
    size_t end = i;
    for (; end < t.size(); ++end) {
      if (t[end].kind != TokenKind::kPunct) continue;
      const std::string& s = t[end].text;
      if (s == "(" || s == "[") ++depth;
      if (s == ")" || s == "]") --depth;
      if (depth <= 0 && (s == ";" || s == "{" || s == "}")) break;
    }
    r.exits.push_back(end < t.size() ? end : t.size() - 1);
  }
  std::sort(r.exits.begin(), r.exits.end());

  // Pass 5: attribute each co_await/co_return/co_yield to its *innermost*
  // callable. A nested lambda's co_await suspends the inner frame, not the
  // outer one, so it must not mark the enclosing lambda (or function) as a
  // coroutine — a `[&]` wrapper around a parameter-passing coroutine lambda
  // is plain synchronous code and owes no frame-lifetime obligations.
  auto is_co_token = [&t](size_t b) {
    return t[b].kind == TokenKind::kIdentifier &&
           (t[b].text == "co_await" || t[b].text == "co_return" || t[b].text == "co_yield");
  };
  for (LambdaInfo& lam : r.lambdas) {
    if (!lam.has_body) continue;
    const int body = r.BlockOf(lam.body_open);
    for (size_t b = lam.body_open + 1; b < lam.body_close && b < t.size(); ++b) {
      if (is_co_token(b) && r.EnclosingLambda(b) == body) {
        lam.is_coroutine = true;
        break;
      }
    }
  }
  for (FunctionInfo& fn : r.functions) {
    if (!fn.has_body) continue;
    // The lambda context the function itself sits in (-1 at file scope): a
    // token belongs to this function's own frame iff it shares that context.
    const int owner = r.EnclosingLambda(fn.body_open);
    for (size_t b = fn.body_open + 1; b < fn.body_close && b < t.size(); ++b) {
      if (!is_co_token(b) || r.EnclosingLambda(b) != owner) continue;
      fn.is_coroutine = true;
      if (t[b].text == "co_await") fn.awaits.push_back(b);
    }
  }

  return r;
}

// ---------------------------------------------------------------------------
// Flow summary queries
// ---------------------------------------------------------------------------

int ParseResult::BlockOf(size_t pos) const {
  if (pos >= block_of.size()) return -1;
  return block_of[pos];
}

bool ParseResult::IsAncestorOrSelf(int anc, int b) const {
  if (anc == -1) return true;  // file scope encloses everything
  while (b != -1) {
    if (b == anc) return true;
    b = blocks[static_cast<size_t>(b)].parent;
  }
  return false;
}

bool ParseResult::Dominates(size_t a, size_t b) const {
  if (a >= b) return false;
  return IsAncestorOrSelf(BlockOf(a), BlockOf(b));
}

bool ParseResult::InSiblingArms(size_t a, size_t b) const {
  // Collect a's ancestor chain; check whether any of b's ancestors is the
  // linked sibling of one of them.
  for (int ba = BlockOf(a); ba != -1; ba = blocks[static_cast<size_t>(ba)].parent) {
    const int sib = blocks[static_cast<size_t>(ba)].sibling;
    if (sib == -1) continue;
    for (int bb = BlockOf(b); bb != -1; bb = blocks[static_cast<size_t>(bb)].parent) {
      if (bb == sib) return true;
    }
  }
  return false;
}

bool ParseResult::Reaches(size_t a, size_t b) const {
  if (a >= b) return false;
  if (InSiblingArms(a, b)) return false;
  // An exit statement strictly between a and b whose block encloses a's
  // severs every linear path out of a: execution within a's block must pass
  // it before reaching anything after. Exits inside a different lambda body
  // belong to a different execution context and are ignored.
  const auto first = std::lower_bound(exits.begin(), exits.end(), a + 1);
  const int lam_a = EnclosingLambda(a);
  for (auto it = first; it != exits.end() && *it < b; ++it) {
    if (EnclosingLambda(*it) != lam_a) continue;
    if (IsAncestorOrSelf(BlockOf(*it), BlockOf(a))) return false;
  }
  return true;
}

int ParseResult::EnclosingLoop(size_t pos, int within) const {
  for (int b = BlockOf(pos); b != -1; b = blocks[static_cast<size_t>(b)].parent) {
    if (b == within) return -1;
    const BlockKind k = blocks[static_cast<size_t>(b)].kind;
    if (k == BlockKind::kLoop) return b;
    // Don't walk out through a function/lambda boundary: a loop outside the
    // current callable does not re-execute its body tokens.
    if (k == BlockKind::kFunction || k == BlockKind::kLambda) return -1;
  }
  return -1;
}

int ParseResult::EnclosingLambda(size_t pos) const {
  for (int b = BlockOf(pos); b != -1; b = blocks[static_cast<size_t>(b)].parent) {
    if (blocks[static_cast<size_t>(b)].kind == BlockKind::kLambda) return b;
  }
  return -1;
}

}  // namespace fwlint
