#include "src/graphql/value.h"

#include <cstdio>

namespace bladerunner {

namespace {

const std::string kEmptyString;

void AppendJsonString(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

Value& Value::operator=(const Value& other) {
  if (this != &other) {
    // Copy first: `other` may live inside the node this assignment releases.
    Value copy(other);
    data_ = std::move(copy.data_);
  }
  return *this;
}

bool Value::AsBool(bool fallback) const {
  if (const bool* b = std::get_if<bool>(&data_)) {
    return *b;
  }
  return fallback;
}

int64_t Value::AsInt(int64_t fallback) const {
  if (const int64_t* i = std::get_if<int64_t>(&data_)) {
    return *i;
  }
  if (const double* d = std::get_if<double>(&data_)) {
    return static_cast<int64_t>(*d);
  }
  return fallback;
}

double Value::AsDouble(double fallback) const {
  if (const double* d = std::get_if<double>(&data_)) {
    return *d;
  }
  if (const int64_t* i = std::get_if<int64_t>(&data_)) {
    return static_cast<double>(*i);
  }
  return fallback;
}

const std::string& Value::AsString() const {
  if (const std::string* s = std::get_if<std::string>(&data_)) {
    return *s;
  }
  return kEmptyString;
}

const ValueList& Value::AsList() const {
  if (const auto* l = std::get_if<Shared<ValueList>>(&data_)) {
    return l->get();
  }
  return Shared<ValueList>::Empty();
}

const ValueMap& Value::AsMap() const {
  if (const auto* m = std::get_if<Shared<ValueMap>>(&data_)) {
    return m->get();
  }
  return Shared<ValueMap>::Empty();
}

ValueList& Value::MutableList() {
  if (auto* l = std::get_if<Shared<ValueList>>(&data_)) {
    return l->Mutable();
  }
  return data_.emplace<Shared<ValueList>>(ValueList{}).Mutable();
}

ValueMap& Value::MutableMap() {
  if (auto* m = std::get_if<Shared<ValueMap>>(&data_)) {
    return m->Mutable();
  }
  return data_.emplace<Shared<ValueMap>>(ValueMap{}).Mutable();
}

const Value& Value::Get(std::string_view key) const {
  const ValueMap& map = AsMap();
  auto it = map.find(key);
  return it == map.end() ? NullValue() : it->second;
}

bool Value::Has(std::string_view key) const { return AsMap().contains(key); }

void Value::Set(std::string_view key, Value v) {
  ValueMap& map = MutableMap();
  auto it = map.lower_bound(key);
  if (it != map.end() && it->first == key) {
    it->second = std::move(v);
  } else {
    map.emplace_hint(it, key, std::move(v));
  }
}

void Value::Erase(std::string_view key) {
  if (!Has(key)) {
    return;  // nothing to write: a shared node stays shared
  }
  ValueMap& map = MutableMap();
  map.erase(map.find(key));
}

size_t Value::Size() const { return is_list() ? AsList().size() : AsMap().size(); }

void Value::Append(Value v) { MutableList().push_back(std::move(v)); }

std::string Value::ToJson() const {
  std::string out;
  struct Renderer {
    std::string& out;
    void operator()(std::nullptr_t) { out += "null"; }
    void operator()(bool b) { out += b ? "true" : "false"; }
    void operator()(int64_t i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(i));
      out += buf;
    }
    void operator()(double d) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", d);
      out += buf;
    }
    void operator()(const std::string& s) { AppendJsonString(s, out); }
    void operator()(const Shared<ValueList>& shared) {
      out.push_back('[');
      bool first = true;
      for (const Value& v : shared.get()) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        out += v.ToJson();
      }
      out.push_back(']');
    }
    void operator()(const Shared<ValueMap>& shared) {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : shared.get()) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        AppendJsonString(k, out);
        out.push_back(':');
        out += v.ToJson();
      }
      out.push_back('}');
    }
  };
  std::visit(Renderer{out}, data_);
  return out;
}

uint64_t Value::WireSize() const {
  struct Sizer {
    uint64_t operator()(std::nullptr_t) const { return 4; }
    uint64_t operator()(bool) const { return 5; }
    uint64_t operator()(int64_t) const { return 8; }
    uint64_t operator()(double) const { return 8; }
    uint64_t operator()(const std::string& s) const { return s.size() + 2; }
    uint64_t operator()(const Shared<ValueList>& shared) const {
      uint64_t total = 2;
      for (const Value& v : shared.get()) {
        total += v.WireSize() + 1;
      }
      return total;
    }
    uint64_t operator()(const Shared<ValueMap>& shared) const {
      uint64_t total = 2;
      for (const auto& [k, v] : shared.get()) {
        total += k.size() + 3 + v.WireSize() + 1;
      }
      return total;
    }
  };
  return std::visit(Sizer{}, data_);
}

const Value& NullValue() {
  static const Value kNull;
  return kNull;
}

}  // namespace bladerunner
