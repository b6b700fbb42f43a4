// JSON-like value model used for GraphQL arguments, results, update-event
// metadata, and BURST headers.
//
// Sharing model. A list or map Value points at an immutable, refcounted
// node; copying the Value takes a reference to the node and copies nothing
// else. So the header a stream keeps at every hop, the payload pushed to
// every stream that passed, and the metadata every buffered candidate holds
// are one tree until someone writes to it. Set, Append and Erase write
// through copy-on-write: a node another Value still references is first
// cloned one level deep (its children are shared by the clone), and the
// clone is then mutated in place for as long as no copy of it is taken.
// Observable behaviour (equality, ToJson, WireSize, map key order) is that
// of a deep-copied tree.
//
// Values may be copied, mutated and dropped on different threads (the
// partitioned kernel's LPs hand them to each other): the refcount is atomic,
// and a node is written in place only by the Value that holds its last
// reference. As for any standard type, one Value object is not to be used
// by two threads at once unless both only read it.
//
// Reference validity. A reference returned by Get, AsMap, AsList or
// AsString is valid until the next mutation of that Value (Set, Append,
// Erase, or assignment to it), even if the Value is not moved: the mutation
// may drop the Value's reference to the node the reference points into.

#ifndef BLADERUNNER_SRC_GRAPHQL_VALUE_H_
#define BLADERUNNER_SRC_GRAPHQL_VALUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace bladerunner {

class Value;

using ValueList = std::vector<Value>;
// std::less<> lets lookups by literal or string_view key skip building a
// std::string; the key order is std::string's.
using ValueMap = std::map<std::string, Value, std::less<>>;

// A dynamically typed value: null, bool, int64, double, string, list, map.
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(int i) : data_(static_cast<int64_t>(i)) {}
  Value(int64_t i) : data_(i) {}
  Value(uint64_t i) : data_(static_cast<int64_t>(i)) {}
  Value(double d) : data_(d) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(ValueList l) : data_(std::in_place_type<Shared<ValueList>>, std::move(l)) {}
  Value(ValueMap m) : data_(std::in_place_type<Shared<ValueMap>>, std::move(m)) {}

  Value(const Value&) = default;
  Value(Value&&) noexcept = default;
  // Copies `other` before releasing this Value's node, so `v = v.Get("k")`
  // is safe.
  Value& operator=(const Value& other);
  Value& operator=(Value&&) noexcept = default;

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_list() const { return std::holds_alternative<Shared<ValueList>>(data_); }
  bool is_map() const { return std::holds_alternative<Shared<ValueMap>>(data_); }
  bool is_number() const { return is_int() || is_double(); }

  // Typed accessors; defaults returned on type mismatch keep call sites
  // terse in resolvers (missing metadata is a routine, non-fatal case).
  bool AsBool(bool fallback = false) const;
  int64_t AsInt(int64_t fallback = 0) const;
  double AsDouble(double fallback = 0.0) const;
  const std::string& AsString() const;  // empty string on mismatch

  const ValueList& AsList() const;  // empty list on mismatch
  const ValueMap& AsMap() const;    // empty map on mismatch

  // Map-style access. Get returns null Value when absent. Set converts a
  // non-map Value to a map first; Erase of an absent key (or on a non-map)
  // changes nothing.
  const Value& Get(std::string_view key) const;
  bool Has(std::string_view key) const;
  void Set(std::string_view key, Value v);
  void Erase(std::string_view key);

  // List-style access. Append converts a non-list Value to a list first.
  size_t Size() const;  // list size, map size, or 0
  void Append(Value v);

  bool operator==(const Value& other) const { return data_ == other.data_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

  // Compact JSON rendering (keys sorted by map order; deterministic).
  std::string ToJson() const;

  // Rough serialized size in bytes; used for bandwidth accounting.
  uint64_t WireSize() const;

 private:
  // A reference to an immutable, intrusively refcounted node holding a
  // ValueList or ValueMap. A moved-from reference holds no node and reads
  // as empty, as a moved-from container does.
  template <typename T>
  class Shared {
   public:
    explicit Shared(T data) : node_(new Node{{1}, std::move(data)}) {}
    Shared(const Shared& other) noexcept : node_(other.node_) {
      if (node_ != nullptr) {
        node_->refs.fetch_add(1, std::memory_order_relaxed);
      }
    }
    Shared(Shared&& other) noexcept : node_(std::exchange(other.node_, nullptr)) {}
    Shared& operator=(Shared other) noexcept {
      std::swap(node_, other.node_);
      return *this;
    }
    ~Shared() {
      // acq_rel: the release orders this holder's reads of the node before
      // whoever deletes it or writes it in place; the acquire orders the
      // delete after every other holder's release.
      if (node_ != nullptr && node_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        delete node_;
      }
    }

    const T& get() const { return node_ != nullptr ? node_->data : Empty(); }

    // The node's data for writing, cloned one level deep first unless this
    // is the node's only reference. The acquire load orders the in-place
    // write after the reads of every holder that has released the node.
    T& Mutable() {
      if (node_ == nullptr) {
        node_ = new Node{{1}, T()};
      } else if (node_->refs.load(std::memory_order_acquire) != 1) {
        Shared clone{T(node_->data)};
        std::swap(node_, clone.node_);
      }
      return node_->data;
    }

    bool operator==(const Shared& other) const { return get() == other.get(); }

    static const T& Empty() {
      static const T empty;
      return empty;
    }

   private:
    struct Node {
      std::atomic<size_t> refs;
      T data;
    };
    Node* node_;
  };

  ValueList& MutableList();  // converts to list if not already
  ValueMap& MutableMap();    // converts to map if not already

  std::variant<std::nullptr_t, bool, int64_t, double, std::string, Shared<ValueList>,
               Shared<ValueMap>>
      data_;
};

// Returns the singleton null value (handy for returning by const-ref).
const Value& NullValue();

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_GRAPHQL_VALUE_H_
