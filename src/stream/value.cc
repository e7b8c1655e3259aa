#include "stream/value.h"

#include <charconv>

#include "util/logging.h"

namespace punctsafe {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

void Value::SetString(const char* data, uint32_t len, size_t hash) {
  len_ = len;
  hash_ = hash;
  if (len <= kInlineStringCap) {
    mode_ = Mode::kInlineStr;
    if (len > 0) std::memcpy(payload_.inline_str, data, len);
  } else {
    mode_ = Mode::kOwnedStr;
    payload_.owned_str = new char[len];
    std::memcpy(payload_.owned_str, data, len);
  }
}

Value Value::ExternalString(const char* data, uint32_t len, size_t hash) {
  Value v;
  v.len_ = len;
  v.hash_ = hash;
  if (len <= kInlineStringCap) {
    v.mode_ = Mode::kInlineStr;
    if (len > 0) std::memcpy(v.payload_.inline_str, data, len);
  } else {
    v.mode_ = Mode::kExternalStr;
    v.payload_.external_str = data;
  }
  return v;
}

void Value::FreeOwned() noexcept { delete[] payload_.owned_str; }

int64_t Value::AsInt64() const {
  PUNCTSAFE_CHECK(type() == ValueType::kInt64)
      << "AsInt64 on " << ValueTypeToString(type());
  return payload_.i;
}

double Value::AsDouble() const {
  PUNCTSAFE_CHECK(type() == ValueType::kDouble)
      << "AsDouble on " << ValueTypeToString(type());
  return payload_.d;
}

std::string_view Value::AsString() const {
  PUNCTSAFE_CHECK(type() == ValueType::kString)
      << "AsString on " << ValueTypeToString(type());
  return string_view();
}

void Value::AppendTo(std::string* out) const {
  // std::to_chars appends without a stream or a locale; the output is
  // byte-identical to the former std::ostringstream rendering (doubles
  // in the default "%g" form: general notation, six significant
  // digits; value_test pins it).
  char buf[32];
  switch (type()) {
    case ValueType::kNull:
      out->append("null");
      return;
    case ValueType::kInt64: {
      auto res = std::to_chars(buf, buf + sizeof(buf), payload_.i);
      out->append(buf, res.ptr);
      return;
    }
    case ValueType::kDouble: {
      auto res = std::to_chars(buf, buf + sizeof(buf), payload_.d,
                               std::chars_format::general, 6);
      out->append(buf, res.ptr);
      return;
    }
    case ValueType::kString:
      out->push_back('"');
      out->append(string_view());
      out->push_back('"');
      return;
  }
}

std::string Value::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

}  // namespace punctsafe
