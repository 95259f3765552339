// Binary serialization: byte primitives, per-type field codecs, and the one
// generic codec every protocol message goes through.
//
// All protocol messages are actually serialized to bytes before they enter
// the simulated network; the byte counts the evaluation reports are the
// sizes produced here. Encoding is little-endian with fixed-width integers
// and u32 length prefixes for variable-size fields.
//
// A message names its fields once, in wire order, through a static field
// list (wire/messages.h):
//
//   template <class S>
//   static auto fields(S& m) { return std::tie(m.ov, m.meta); }
//
// encode(msg) writes each listed field with its type's codec below, and
// decode<M>(payload) reads them back in the same order, then rejects
// trailing bytes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/types.h"

namespace pahoehoe::wire {

/// Thrown by Reader on truncated or malformed input.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

class Writer {
 public:
  void u8(uint8_t v);
  void u16(uint16_t v);
  void u32(uint32_t v);
  void u64(uint64_t v);
  void i64(int64_t v);
  void boolean(bool v);
  void bytes(const Bytes& v);        // u32 length prefix + raw bytes
  void str(const std::string& v);    // u32 length prefix + raw bytes

  const Bytes& data() const& { return out_; }
  Bytes take() && { return std::move(out_); }

 private:
  Bytes out_;
};

class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(&data) {}

  uint8_t u8();
  uint16_t u16();
  uint32_t u32();
  uint64_t u64();
  int64_t i64();
  bool boolean();
  Bytes bytes();
  std::string str();

  /// True iff every byte has been consumed.
  bool exhausted() const { return pos_ == data_->size(); }
  /// Throws WireError unless exhausted (call after decoding a message).
  void expect_exhausted() const;

 private:
  const uint8_t* take(size_t count);

  const Bytes* data_;
  size_t pos_ = 0;
};

// --- Field codecs ------------------------------------------------------------
//
// One encode/decode overload pair per field type. The generic codecs below
// see only the overloads declared above them, plus those argument-dependent
// lookup finds in namespace wire (Status, RetrieveTsRep::Entry), so the
// codec of every type from outside wire is declared here first.

inline void encode(Writer& w, uint8_t v) { w.u8(v); }
inline void encode(Writer& w, uint16_t v) { w.u16(v); }
inline void encode(Writer& w, uint32_t v) { w.u32(v); }
inline void encode(Writer& w, uint64_t v) { w.u64(v); }
inline void encode(Writer& w, int64_t v) { w.i64(v); }
inline void encode(Writer& w, bool v) { w.boolean(v); }
inline void encode(Writer& w, const Bytes& v) { w.bytes(v); }
inline void encode(Writer& w, NodeId v) { w.u32(v.value); }
inline void encode(Writer& w, DataCenterId v) { w.u8(v.value); }
void encode(Writer& w, const Key& key);
void encode(Writer& w, const Timestamp& ts);
void encode(Writer& w, const ObjectVersionId& ov);
void encode(Writer& w, const Policy& policy);
void encode(Writer& w, const Location& loc);
void encode(Writer& w, const Metadata& meta);

inline void decode(Reader& r, uint8_t& v) { v = r.u8(); }
inline void decode(Reader& r, uint16_t& v) { v = r.u16(); }
inline void decode(Reader& r, uint32_t& v) { v = r.u32(); }
inline void decode(Reader& r, uint64_t& v) { v = r.u64(); }
inline void decode(Reader& r, int64_t& v) { v = r.i64(); }
inline void decode(Reader& r, bool& v) { v = r.boolean(); }
inline void decode(Reader& r, Bytes& v) { v = r.bytes(); }
inline void decode(Reader& r, NodeId& v) { v.value = r.u32(); }
inline void decode(Reader& r, DataCenterId& v) { v.value = r.u8(); }
void decode(Reader& r, Key& key);
void decode(Reader& r, Timestamp& ts);
void decode(Reader& r, ObjectVersionId& ov);
/// Throws WireError on a policy that fails Policy::valid().
void decode(Reader& r, Policy& policy);
void decode(Reader& r, Location& loc);
void decode(Reader& r, Metadata& meta);

/// A struct with a static `fields(S&)` list is encoded field by field.
template <typename T>
concept HasFields = requires(T& v) { T::fields(v); };

template <size_t N>
void encode(Writer& w, const std::array<uint8_t, N>& v);
template <typename T>
void encode(Writer& w, const std::optional<T>& v);
template <typename T>
void encode(Writer& w, const std::vector<T>& v);
template <HasFields T>
void encode(Writer& w, const T& v);

template <size_t N>
void decode(Reader& r, std::array<uint8_t, N>& v);
template <typename T>
void decode(Reader& r, std::optional<T>& v);
template <typename T>
void decode(Reader& r, std::vector<T>& v);
template <HasFields T>
void decode(Reader& r, T& v);

/// Write / read a tuple of field references in order.
template <typename Tuple>
void encode_fields(Writer& w, const Tuple& fields) {
  std::apply([&w](const auto&... f) { (encode(w, f), ...); }, fields);
}
template <typename Tuple>
void decode_fields(Reader& r, const Tuple& fields) {
  std::apply([&r](auto&... f) { (decode(r, f), ...); }, fields);
}

/// Fixed-size byte arrays (digests) are raw bytes, no length prefix.
template <size_t N>
void encode(Writer& w, const std::array<uint8_t, N>& v) {
  for (uint8_t b : v) w.u8(b);
}
template <size_t N>
void decode(Reader& r, std::array<uint8_t, N>& v) {
  for (uint8_t& b : v) b = r.u8();
}

/// Presence byte (0/1), then the value when present.
template <typename T>
void encode(Writer& w, const std::optional<T>& v) {
  w.boolean(v.has_value());
  if (v.has_value()) encode(w, *v);
}
template <typename T>
void decode(Reader& r, std::optional<T>& v) {
  v.reset();
  if (r.boolean()) decode(r, v.emplace());
}

/// u16 count, then the elements. A u16 count bounds the reserve even when
/// the count is corrupted.
template <typename T>
void encode(Writer& w, const std::vector<T>& v) {
  w.u16(static_cast<uint16_t>(v.size()));
  for (const T& e : v) encode(w, e);
}
template <typename T>
void decode(Reader& r, std::vector<T>& v) {
  const uint16_t count = r.u16();
  v.clear();
  v.reserve(count);
  for (uint16_t i = 0; i < count; ++i) decode(r, v.emplace_back());
}

template <HasFields T>
void encode(Writer& w, const T& v) {
  encode_fields(w, T::fields(v));
}
template <HasFields T>
void decode(Reader& r, T& v) {
  decode_fields(r, T::fields(v));
}

/// A message's payload: its fields in list order.
template <HasFields M>
Bytes encode(const M& msg) {
  Writer w;
  encode(w, msg);
  return std::move(w).take();
}

/// Parse a payload. Throws WireError on truncated input, a malformed field
/// or trailing bytes.
template <HasFields M>
M decode(const Bytes& payload) {
  Reader r(payload);
  M msg;
  decode(r, msg);
  r.expect_exhausted();
  return msg;
}

}  // namespace pahoehoe::wire
