// Lightweight structural parser for fwlint.
//
// PR 3's checks walked the flat token stream; the flow-aware checks
// (suspend-lifetime, use-after-move, iterator-invalidation) need to know
// *where* they are: which function a token belongs to, whether that function
// is a coroutine, what its parameters are, and how its blocks nest. This
// parser recovers exactly that — function/coroutine boundaries, parameter
// lists, lambda introducers, and a per-function block tree that doubles as a
// statement-level control-flow summary — from the lexer's token stream,
// without attempting full C++ semantics.
//
// The recovery contract is the same as the lexer's: never fail. Macros,
// template metaprogramming, half-written code, and exotic declarators
// degrade to "no function recognised here" (so the flow checks simply have
// nothing to say), never to a crash or a misattributed finding. The
// known-unparsed subset is documented in DESIGN.md §14.
#ifndef FIREWORKS_TOOLS_FWLINT_PARSER_H_
#define FIREWORKS_TOOLS_FWLINT_PARSER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "tools/fwlint/lexer.h"

namespace fwlint {

// How a brace block entered the control flow. kPlain covers bare scopes and
// brace initialisers — linear code either way, which is all the flow model
// needs to know about them.
enum class BlockKind {
  kPlain,
  kFunction,  // a recognised function definition's body
  kLambda,    // a lambda body
  kLoop,      // for / while / do
  kIf,        // the then-arm of an if
  kElse,      // the else-arm (linked to its if via Block::sibling)
  kSwitch,
  kTry,
  kCatch,
  kClass,     // class/struct/union/enum body
  kNamespace,
};

struct Block {
  BlockKind kind = BlockKind::kPlain;
  size_t open = 0;    // token index of '{'
  size_t close = 0;   // token index of the matching '}' (or token count if unclosed)
  int parent = -1;    // index into ParseResult::blocks, -1 = file scope
  int sibling = -1;   // for kIf/kElse: the other arm of the same if/else
};

struct Param {
  std::string name;               // "" for unnamed parameters
  std::vector<std::string> type;  // the type's tokens, in order
  int line = 0;
  bool is_ref = false;   // T& / const T& / T&&
  bool is_ptr = false;   // T*
  bool is_view = false;  // std::string_view / std::span<...> by value
};

struct FunctionInfo {
  std::string name;       // final declarator component ("Remove")
  std::string qualified;  // as written ("Store::Remove")
  int line = 0;           // line of the name token
  size_t name_pos = 0;    // token index of the name
  size_t params_open = 0, params_close = 0;  // '(' and ')' token indices
  bool has_body = false;
  size_t body_open = 0, body_close = 0;  // '{'/'}' token indices when has_body
  bool returns_co = false;       // Co<...> (any qualification)
  bool is_coroutine = false;     // body contains co_await/co_yield/co_return
  std::vector<Param> params;
  std::vector<size_t> awaits;    // token indices of co_await in the body
};

struct LambdaInfo {
  size_t intro = 0;      // token index of '['
  int line = 0;
  bool has_body = false;
  size_t body_open = 0, body_close = 0;
  bool captures_default_ref = false;          // [&] or [&, ...]
  std::vector<std::string> ref_captures;      // explicit [&x] names
  bool is_coroutine = false;                  // body contains co_await/co_return/co_yield
};

// The file-level parse: every recognised function and lambda plus the block
// tree. Token positions index into the LexResult::tokens vector the parse
// was built from.
struct ParseResult {
  std::vector<FunctionInfo> functions;
  std::vector<LambdaInfo> lambdas;
  std::vector<Block> blocks;
  std::vector<int> block_of;  // token index -> innermost block (-1 = file scope)
  // Sorted token indices of statements that sever linear forward flow:
  // return / co_return / throw / continue. (`break` is deliberately absent:
  // it jumps to just after the loop, so code downstream still executes;
  // `continue` re-enters the loop header, and the loop-aware rules in the
  // flow checks backstop what severing it hides.)
  std::vector<size_t> exits;

  // --- statement-level flow summary queries -------------------------------

  // Innermost block containing token `pos` (-1 for file scope).
  int BlockOf(size_t pos) const;

  // True if block `anc` is `b` or an ancestor of `b`.
  bool IsAncestorOrSelf(int anc, int b) const;

  // Straight-line dominance approximation: `a` executes before `b` on every
  // path that reaches `b`, i.e. a < b and a's block encloses b's.
  bool Dominates(size_t a, size_t b) const;

  // May-path reachability: some forward path executes `a` then `b`. True when
  // a < b unless the two sit in opposite arms of the same if/else, or an exit
  // statement (see `exits`) between them sits in a block enclosing `a` — then
  // every linear path out of `a`'s block leaves the function (or iteration)
  // before reaching `b`.
  bool Reaches(size_t a, size_t b) const;

  // True if `a` and `b` live under the two arms of one if/else statement.
  bool InSiblingArms(size_t a, size_t b) const;

  // Innermost enclosing loop block of `pos`, or -1. When `within` is >= 0 the
  // search stops at that block (exclusive), so "loop inside this function".
  int EnclosingLoop(size_t pos, int within = -1) const;

  // Innermost enclosing lambda body block of `pos`, or -1.
  int EnclosingLambda(size_t pos) const;
};

// Parses a token stream. Never fails; see the recovery contract above.
ParseResult Parse(const std::vector<Token>& tokens);

}  // namespace fwlint

#endif  // FIREWORKS_TOOLS_FWLINT_PARSER_H_
