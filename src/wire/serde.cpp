#include "wire/serde.h"

namespace pahoehoe::wire {

namespace {
constexpr size_t kMaxLengthPrefix = 1u << 30;  // 1 GiB sanity bound
// Room reserved past a byte string for the fields that follow it (a
// fragment is trailed by its 32-byte digest), so appending them does not
// reallocate and copy the payload again.
constexpr size_t kTailRoom = 64;
}

void Writer::u8(uint8_t v) { out_.push_back(v); }

void Writer::u16(uint16_t v) {
  out_.push_back(static_cast<uint8_t>(v));
  out_.push_back(static_cast<uint8_t>(v >> 8));
}

void Writer::u32(uint32_t v) {
  for (int i = 0; i < 4; ++i) out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::u64(uint64_t v) {
  for (int i = 0; i < 8; ++i) out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

void Writer::boolean(bool v) { u8(v ? 1 : 0); }

void Writer::bytes(const Bytes& v) {
  out_.reserve(out_.size() + 4 + v.size() + kTailRoom);
  u32(static_cast<uint32_t>(v.size()));
  out_.insert(out_.end(), v.begin(), v.end());
}

void Writer::str(const std::string& v) {
  u32(static_cast<uint32_t>(v.size()));
  out_.insert(out_.end(), v.begin(), v.end());
}

const uint8_t* Reader::take(size_t count) {
  if (pos_ + count > data_->size()) {
    throw WireError("truncated message: need " + std::to_string(count) +
                    " bytes at offset " + std::to_string(pos_) + " of " +
                    std::to_string(data_->size()));
  }
  const uint8_t* p = data_->data() + pos_;
  pos_ += count;
  return p;
}

uint8_t Reader::u8() { return *take(1); }

uint16_t Reader::u16() {
  const uint8_t* p = take(2);
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t Reader::u32() {
  const uint8_t* p = take(4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t Reader::u64() {
  const uint8_t* p = take(8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

int64_t Reader::i64() { return static_cast<int64_t>(u64()); }

bool Reader::boolean() {
  uint8_t v = u8();
  if (v > 1) throw WireError("invalid boolean byte");
  return v == 1;
}

Bytes Reader::bytes() {
  uint32_t len = u32();
  if (len > kMaxLengthPrefix) throw WireError("length prefix too large");
  const uint8_t* p = take(len);
  return Bytes(p, p + len);
}

std::string Reader::str() {
  uint32_t len = u32();
  if (len > kMaxLengthPrefix) throw WireError("length prefix too large");
  const uint8_t* p = take(len);
  return std::string(reinterpret_cast<const char*>(p), len);
}

void Reader::expect_exhausted() const {
  if (!exhausted()) throw WireError("trailing bytes after message");
}

namespace {

// Field lists of the domain types: one list serves both directions.
constexpr auto timestamp_fields = [](auto& ts) {
  return std::tie(ts.wall_micros, ts.proxy);
};
constexpr auto ov_fields = [](auto& ov) { return std::tie(ov.key, ov.ts); };
constexpr auto location_fields = [](auto& loc) {
  return std::tie(loc.fs, loc.disk);
};
constexpr auto policy_fields = [](auto& p) {
  return std::tie(p.k, p.n, p.max_frags_per_fs, p.max_frags_per_dc,
                  p.data_frags_one_dc, p.min_frags_for_success);
};
constexpr auto metadata_fields = [](auto& meta) {
  return std::tie(meta.policy, meta.value_size, meta.locs);
};

}  // namespace

void encode(Writer& w, const Key& key) { w.str(key.value); }
void decode(Reader& r, Key& key) { key.value = r.str(); }

void encode(Writer& w, const Timestamp& ts) {
  encode_fields(w, timestamp_fields(ts));
}
void decode(Reader& r, Timestamp& ts) {
  decode_fields(r, timestamp_fields(ts));
}

void encode(Writer& w, const ObjectVersionId& ov) {
  encode_fields(w, ov_fields(ov));
}
void decode(Reader& r, ObjectVersionId& ov) {
  decode_fields(r, ov_fields(ov));
}

void encode(Writer& w, const Location& loc) {
  encode_fields(w, location_fields(loc));
}
void decode(Reader& r, Location& loc) {
  decode_fields(r, location_fields(loc));
}

void encode(Writer& w, const Policy& policy) {
  encode_fields(w, policy_fields(policy));
}
void decode(Reader& r, Policy& policy) {
  decode_fields(r, policy_fields(policy));
  if (!policy.valid()) throw WireError("invalid policy");
}

void encode(Writer& w, const Metadata& meta) {
  encode_fields(w, metadata_fields(meta));
}
void decode(Reader& r, Metadata& meta) {
  decode_fields(r, metadata_fields(meta));
}

}  // namespace pahoehoe::wire
