#include "src/lang/source_text.h"

#include <cstdint>

#include "src/base/strings.h"
#include "src/base/units.h"
#include "src/lang/json.h"

namespace fwlang {

using fwbase::Result;
using fwbase::Status;
using fwbase::StrFormat;

namespace {

Status FieldError(const std::string& context, const std::string& reason) {
  return Status::InvalidArgument(context + ": " + reason);
}

// A KiB count from outside input, in bytes; a count whose byte size would
// wrap a uint64_t is rejected.
Result<uint64_t> KibAsBytes(const JsonValue* value) {
  Result<uint64_t> kib = JsonCount(value);
  if (!kib.ok()) {
    return kib.status();
  }
  if (*kib > UINT64_MAX / fwbase::kKiB) {
    return Status::InvalidArgument("expected a KiB count below 2^54");
  }
  return *kib * fwbase::kKiB;
}

Result<Op> ParseOp(const JsonValue& json, const std::string& context) {
  if (!json.is_array() || json.AsArray().empty() || !json.AsArray()[0].is_string()) {
    return FieldError(context, "an op must be [\"kind\", args...]");
  }
  const auto& array = json.AsArray();
  const std::string& kind = array[0].AsString();
  const size_t argc = array.size() - 1;

  auto count_arg = [&](size_t i) -> Result<uint64_t> {
    Result<uint64_t> count = JsonCount(&array[i]);
    if (!count.ok()) {
      return FieldError(context, count.status().message());
    }
    return count;
  };

  if (kind == "compute") {
    if (argc < 1 || argc > 2) {
      return FieldError(context, "compute takes [units, friendliness?]");
    }
    auto units = count_arg(1);
    if (!units.ok()) {
      return units.status();
    }
    double friendliness = 0.95;
    if (argc == 2) {
      if (!array[2].is_number() || array[2].AsNumber() < 0.0 || array[2].AsNumber() > 1.0) {
        return FieldError(context, "friendliness must be a number in [0,1]");
      }
      friendliness = array[2].AsNumber();
    }
    return Op::Compute(*units, friendliness);
  }
  if (kind == "disk_read" || kind == "disk_write") {
    if (argc < 1 || argc > 2) {
      return FieldError(context, kind + " takes [bytes, times?]");
    }
    auto bytes = count_arg(1);
    if (!bytes.ok()) {
      return bytes.status();
    }
    uint64_t times = 1;
    if (argc == 2) {
      auto t = count_arg(2);
      if (!t.ok()) {
        return t.status();
      }
      times = *t;
    }
    return kind == "disk_read" ? Op::DiskRead(*bytes, times) : Op::DiskWrite(*bytes, times);
  }
  if (kind == "net_send") {
    if (argc != 1) {
      return FieldError(context, "net_send takes [bytes]");
    }
    auto bytes = count_arg(1);
    if (!bytes.ok()) {
      return bytes.status();
    }
    return Op::NetSend(*bytes);
  }
  if (kind == "db_put") {
    if (argc != 2 || !array[1].is_string()) {
      return FieldError(context, "db_put takes [db, bytes]");
    }
    auto bytes = count_arg(2);
    if (!bytes.ok()) {
      return bytes.status();
    }
    return Op::DbPut(array[1].AsString(), *bytes);
  }
  if (kind == "db_get") {
    if (argc != 2 || !array[1].is_string() || !array[2].is_string()) {
      return FieldError(context, "db_get takes [db, key]");
    }
    return Op::DbGet(array[1].AsString(), array[2].AsString());
  }
  if (kind == "db_scan") {
    if (argc != 1 || !array[1].is_string()) {
      return FieldError(context, "db_scan takes [db]");
    }
    return Op::DbScan(array[1].AsString());
  }
  if (kind == "call") {
    if (argc < 1 || argc > 2 || !array[1].is_string()) {
      return FieldError(context, "call takes [method, times?]");
    }
    uint64_t times = 1;
    if (argc == 2) {
      auto t = count_arg(2);
      if (!t.ok()) {
        return t.status();
      }
      times = *t;
    }
    return Op::Call(array[1].AsString(), times);
  }
  if (kind == "alloc_heap") {
    if (argc != 1) {
      return FieldError(context, "alloc_heap takes [bytes]");
    }
    auto bytes = count_arg(1);
    if (!bytes.ok()) {
      return bytes.status();
    }
    return Op::AllocHeap(*bytes);
  }
  return FieldError(context, "unknown op kind \"" + kind + "\"");
}

}  // namespace

Result<FunctionSource> ParseFunctionSource(std::string_view json_text) {
  Result<JsonValue> document = ParseJson(json_text);
  if (!document.ok()) {
    return document.status();
  }
  if (!document->is_object()) {
    return Status::InvalidArgument("function definition must be a JSON object");
  }

  const JsonValue* name = document->Find("name");
  if (name == nullptr || !name->is_string() || name->AsString().empty()) {
    return Status::InvalidArgument("missing or invalid \"name\"");
  }
  const JsonValue* language_field = document->Find("language");
  if (language_field == nullptr || !language_field->is_string()) {
    return Status::InvalidArgument("missing or invalid \"language\"");
  }
  Language language;
  if (language_field->AsString() == "nodejs") {
    language = Language::kNodeJs;
  } else if (language_field->AsString() == "python") {
    language = Language::kPython;
  } else {
    return Status::InvalidArgument("\"language\" must be \"nodejs\" or \"python\"");
  }
  const JsonValue* entry = document->Find("entry");
  if (entry == nullptr || !entry->is_string()) {
    return Status::InvalidArgument("missing or invalid \"entry\"");
  }

  uint64_t package_bytes = 0;
  if (const JsonValue* package = document->Find("package_kib"); package != nullptr) {
    auto bytes = KibAsBytes(package);
    if (!bytes.ok()) {
      return FieldError("package_kib", bytes.status().message());
    }
    package_bytes = *bytes;
  }

  const JsonValue* methods_field = document->Find("methods");
  if (methods_field == nullptr || !methods_field->is_array() ||
      methods_field->AsArray().empty()) {
    return Status::InvalidArgument("\"methods\" must be a non-empty array");
  }

  std::vector<MethodDef> methods;
  for (const JsonValue& method_json : methods_field->AsArray()) {
    if (!method_json.is_object()) {
      return Status::InvalidArgument("each method must be an object");
    }
    const JsonValue* method_name = method_json.Find("name");
    if (method_name == nullptr || !method_name->is_string()) {
      return Status::InvalidArgument("method missing \"name\"");
    }
    const std::string context = "method \"" + method_name->AsString() + "\"";
    for (const auto& existing : methods) {
      if (existing.name == method_name->AsString()) {
        return FieldError(context, "duplicate method name");
      }
    }
    uint64_t code_bytes = 2 * fwbase::kKiB;
    if (const JsonValue* code = method_json.Find("code_kib"); code != nullptr) {
      auto bytes = KibAsBytes(code);
      if (!bytes.ok()) {
        return FieldError(context + ".code_kib", bytes.status().message());
      }
      if (*bytes == 0) {
        return FieldError(context, "code_kib must be positive");
      }
      code_bytes = *bytes;
    }
    const JsonValue* ops_field = method_json.Find("ops");
    if (ops_field == nullptr || !ops_field->is_array()) {
      return FieldError(context, "\"ops\" must be an array");
    }
    std::vector<Op> ops;
    for (const JsonValue& op_json : ops_field->AsArray()) {
      Result<Op> op = ParseOp(op_json, context);
      if (!op.ok()) {
        return op.status();
      }
      ops.push_back(*std::move(op));
    }
    methods.emplace_back(method_name->AsString(), std::move(ops), code_bytes);
  }

  FunctionSource fn(name->AsString(), language, std::move(methods), entry->AsString(),
                    package_bytes);
  if (!fn.HasMethod(fn.entry_method)) {
    return Status::InvalidArgument("\"entry\" method \"" + fn.entry_method +
                                   "\" is not defined");
  }
  // Calls must resolve.
  for (const auto& method : fn.methods) {
    for (const auto& op : method.ops) {
      if (op.kind == OpKind::kCall && !fn.HasMethod(op.target)) {
        return FieldError("method \"" + method.name + "\"",
                          "calls undefined method \"" + op.target + "\"");
      }
    }
  }
  return fn;
}

std::string FunctionSourceToJson(const FunctionSource& fn) {
  JsonValue::Array methods;
  for (const auto& method : fn.methods) {
    if (method.injected) {
      continue;  // Annotator artifacts are not part of the user source.
    }
    JsonValue::Array ops;
    for (const auto& op : method.ops) {
      JsonValue::Array tuple;
      tuple.emplace_back(std::string(OpKindName(op.kind)));
      switch (op.kind) {
        case OpKind::kCompute:
          tuple.emplace_back(static_cast<double>(op.amount));
          tuple.emplace_back(op.friendliness);
          break;
        case OpKind::kDiskRead:
        case OpKind::kDiskWrite:
          tuple.emplace_back(static_cast<double>(op.amount));
          tuple.emplace_back(static_cast<double>(op.repeat));
          break;
        case OpKind::kNetSend:
        case OpKind::kAllocHeap:
          tuple.emplace_back(static_cast<double>(op.amount));
          break;
        case OpKind::kDbPut:
          tuple.emplace_back(op.target);
          tuple.emplace_back(static_cast<double>(op.amount));
          break;
        case OpKind::kDbGet: {
          const auto parts = fwbase::StrSplit(op.target, '/');
          tuple.emplace_back(parts[0]);
          tuple.emplace_back(parts.size() > 1 ? parts[1] : "");
          break;
        }
        case OpKind::kDbScan:
          tuple.emplace_back(op.target);
          break;
        case OpKind::kCall:
          tuple.emplace_back(op.target);
          tuple.emplace_back(static_cast<double>(op.repeat));
          break;
      }
      ops.emplace_back(std::move(tuple));
    }
    JsonValue::Object method_json;
    method_json.emplace("name", JsonValue(method.name));
    // Round up: sub-KiB methods must not serialize as zero.
    method_json.emplace(
        "code_kib", JsonValue(static_cast<double>((method.code_bytes + fwbase::kKiB - 1) /
                                                  fwbase::kKiB)));
    method_json.emplace("ops", JsonValue(std::move(ops)));
    methods.emplace_back(std::move(method_json));
  }

  JsonValue::Object root;
  root.emplace("name", JsonValue(fn.name));
  root.emplace("language", JsonValue(std::string(LanguageName(fn.language))));
  root.emplace("entry", JsonValue(fn.entry_method));
  root.emplace("package_kib", JsonValue(static_cast<double>(fn.package_bytes / fwbase::kKiB)));
  root.emplace("methods", JsonValue(std::move(methods)));
  return JsonToString(JsonValue(std::move(root)));
}

}  // namespace fwlang
