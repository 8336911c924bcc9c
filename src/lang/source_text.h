// Textual function definitions: parse and serialize FunctionSource as JSON.
//
// A downstream user defines serverless functions as data instead of C++:
//
//   {
//     "name": "faas-fact-nodejs",
//     "language": "nodejs",            // or "python"
//     "entry": "main",
//     "package_kib": 2048,             // optional, default 0
//     "methods": [
//       {"name": "factorize", "code_kib": 2,
//        "ops": [["compute", 300000, 0.97], ["alloc_heap", 458752]]},
//       {"name": "main",
//        "ops": [["call", "factorize", 100], ["net_send", 579]]}
//     ]
//   }
//
// Ops are arrays of [kind, args...]:
//   ["compute", units, friendliness?]        friendliness defaults to 0.95
//   ["disk_read", bytes, times?]             times defaults to 1
//   ["disk_write", bytes, times?]
//   ["net_send", bytes]
//   ["db_put", db, bytes]
//   ["db_get", db, key]
//   ["db_scan", db]
//   ["call", method, times?]
//   ["alloc_heap", bytes]
//
// ParseFunctionSource accepts exactly this shape and reports precise errors;
// FunctionSourceToJson emits it back (round-trip stable for parsed inputs).
// Names are quoted by fwbase::JsonQuote: a control byte is written as
// \u00XX and parses back byte-exactly, but a byte that is not valid UTF-8 is
// written the same way and parses back as the code point U+00XX.
#ifndef FIREWORKS_SRC_LANG_SOURCE_TEXT_H_
#define FIREWORKS_SRC_LANG_SOURCE_TEXT_H_

#include <string>
#include <string_view>

#include "src/base/status.h"
#include "src/lang/function_ir.h"

namespace fwlang {

fwbase::Result<FunctionSource> ParseFunctionSource(std::string_view json_text);

std::string FunctionSourceToJson(const FunctionSource& fn);

}  // namespace fwlang

#endif  // FIREWORKS_SRC_LANG_SOURCE_TEXT_H_
