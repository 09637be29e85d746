// One field list per serialised struct, and the JSON walk over it.
//
// A struct describes its wire form exactly once, next to its definition,
// as a static member template naming each field's wire name and member in
// wire order:
//
//   template <class Self, class F>
//   static void fields(Self& s, F&& f) {
//     f("count", s.count);
//     f("timeout_ns", s.timeout);
//   }
//
// write_json() and read_json() walk that list, so an encoder and its
// decoder cannot disagree on names, order, units or presence. Field types:
//   - bool, std::string, double;
//   - integers: unsigned as u64, signed as i64, read back only from a whole
//     token that fits the member's type;
//   - util::Duration as integer nanoseconds (never floating seconds);
//   - enums through their to_string (found by argument-dependent lookup).
//     The reader inverts it by scanning enumerators from 0 until to_string
//     answers "?", so an enum needs contiguous enumerators from zero and a
//     "?" fallback for anything else;
//   - std::vector<T> as an array of T;
//   - std::map<K, V> with integer K and V as an array of [key, value] pairs;
//   - any struct with a fields() list, as a nested object.
//
// The reader is strict: every listed field must be present with the right
// kind, and the error names the first one that is not, nested fields
// outermost first (`field "outer": field "inner": expected number`).
// Members not in the list are ignored. Neither direction allocates beyond
// the values themselves.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/time.hpp"

namespace retri::util {

namespace json_fields_detail {

inline bool fail(std::string& err, std::string what) {
  err = std::move(what);
  return false;
}

template <class T>
struct IsVector : std::false_type {};
template <class T>
struct IsVector<std::vector<T>> : std::true_type {};

template <class T>
struct IsMap : std::false_type {};
template <class K, class V>
struct IsMap<std::map<K, V>> : std::true_type {};

}  // namespace json_fields_detail

template <class T>
void write_json(JsonWriter& json, const T& v);

/// Writes T's listed fields as members of the object being written, for
/// documents that put a header of their own before them.
template <class T>
void write_fields(JsonWriter& json, const T& v) {
  T::fields(v, [&json](std::string_view name, const auto& member) {
    json.key(name);
    write_json(json, member);
  });
}

template <class T>
void write_json(JsonWriter& json, const T& v) {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, std::string> ||
                std::is_same_v<T, double>) {
    json.value(v);
  } else if constexpr (std::is_enum_v<T>) {
    json.value(to_string(v));
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    json.value(static_cast<std::int64_t>(v));
  } else if constexpr (std::is_integral_v<T>) {
    json.value(static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_same_v<T, Duration>) {
    json.value(v.ns());
  } else if constexpr (json_fields_detail::IsVector<T>::value) {
    json.begin_array();
    for (const auto& item : v) write_json(json, item);
    json.end_array();
  } else if constexpr (json_fields_detail::IsMap<T>::value) {
    json.begin_array();
    for (const auto& [key, value] : v) {
      json.begin_array();
      write_json(json, key);
      write_json(json, value);
      json.end_array();
    }
    json.end_array();
  } else {  // a struct with a fields() list
    json.begin_object();
    write_fields(json, v);
    json.end_object();
  }
}

/// Compact one-line rendering of `v`.
template <class T>
std::string to_json(const T& v) {
  JsonWriter json(/*pretty=*/false);
  write_json(json, v);
  return std::move(json).take();
}

/// Fills `out` from `doc`, or sets `err` (naming the offending field) and
/// returns false.
template <class T>
bool read_json(const JsonValue& doc, T& out, std::string& err) {
  using json_fields_detail::fail;
  if constexpr (std::is_same_v<T, bool>) {
    if (!doc.is_bool()) return fail(err, "expected bool");
    out = doc.as_bool();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!doc.is_string()) return fail(err, "expected string");
    out = doc.as_string();
  } else if constexpr (std::is_enum_v<T>) {
    if (!doc.is_string()) return fail(err, "expected string");
    using U = std::underlying_type_t<T>;
    for (U i = 0;; ++i) {
      const std::string_view name = to_string(static_cast<T>(i));
      if (name == "?") {
        return fail(err,
                    "unknown value \"" + std::string(doc.as_string()) + "\"");
      }
      if (name == doc.as_string()) {
        out = static_cast<T>(i);
        return true;
      }
    }
  } else if constexpr (std::is_same_v<T, double>) {
    if (!doc.is_number()) return fail(err, "expected number");
    out = doc.as_double();
  } else if constexpr (std::is_same_v<T, Duration>) {
    std::int64_t ns = 0;
    if (!read_json(doc, ns, err)) return false;
    out = Duration::nanoseconds(ns);
  } else if constexpr (std::is_integral_v<T>) {
    // as_i64/as_u64 answer 0 for a token that is not a whole in-range
    // integer, so a 0 is believed only from the one-character token "0".
    if (!doc.is_number()) return fail(err, "expected number");
    std::conditional_t<std::is_signed_v<T>, std::int64_t, std::uint64_t> v{};
    if constexpr (std::is_signed_v<T>) {
      v = doc.as_i64();
    } else {
      v = doc.as_u64();
    }
    if ((v == 0 && doc.raw().size() != 1) || !std::in_range<T>(v)) {
      return fail(err,
                  "expected an integer in range, got " + std::string(doc.raw()));
    }
    out = static_cast<T>(v);
  } else if constexpr (json_fields_detail::IsVector<T>::value) {
    if (!doc.is_array()) return fail(err, "expected array");
    out.clear();
    out.reserve(doc.size());
    for (const JsonValue& item : doc.items()) {
      if (!read_json(item, out.emplace_back(), err)) return false;
    }
  } else if constexpr (json_fields_detail::IsMap<T>::value) {
    if (!doc.is_array()) return fail(err, "expected array");
    out.clear();
    for (const JsonValue& pair : doc.items()) {
      typename T::key_type key{};
      if (!pair.is_array() || pair.size() != 2 ||
          !read_json(pair[0], key, err) ||
          !read_json(pair[1], out[key], err)) {
        return fail(err, "expected [key, value] pairs");
      }
    }
  } else {  // a struct with a fields() list
    if (!doc.is_object()) return fail(err, "expected object");
    bool ok = true;
    // Documents this walker wrote list the fields in order, so the member
    // after the last one read is tried before a scan.
    const JsonMembers members = doc.members();
    JsonMembers::iterator next = members.begin();
    T::fields(out, [&](std::string_view name, auto& member) {
      if (!ok) return;
      JsonMembers::iterator at = next;
      if (at == members.end() || at.key() != name) at = members.find(name);
      if (at == members.end()) {
        err = "missing";
        ok = false;
      } else {
        ok = read_json(at.value(), member, err);
        next = ++at;
      }
      if (!ok) err = "field \"" + std::string(name) + "\": " + err;
    });
    return ok;
  }
  return true;
}

}  // namespace retri::util
