#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sha256.h"
#include "wire/messages.h"
#include "wire/serde.h"

namespace pahoehoe::wire {
namespace {

// --- primitives ---------------------------------------------------------------

TEST(SerdeTest, PrimitiveRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.boolean(true);
  w.boolean(false);
  w.bytes(Bytes{1, 2, 3});
  w.str("hello");

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdeTest, TruncatedInputThrows) {
  Writer w;
  w.u32(7);
  Bytes data = w.data();
  data.pop_back();
  Reader r(data);
  EXPECT_THROW(r.u32(), WireError);
}

TEST(SerdeTest, TruncatedLengthPrefixedFieldThrows) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow; none do
  Reader r(w.data());
  EXPECT_THROW(r.bytes(), WireError);
}

TEST(SerdeTest, InvalidBooleanThrows) {
  Bytes data{2};
  Reader r(data);
  EXPECT_THROW(r.boolean(), WireError);
}

TEST(SerdeTest, TrailingBytesDetected) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.data());
  r.u8();
  EXPECT_THROW(r.expect_exhausted(), WireError);
}

TEST(SerdeTest, EmptyBytesAndString) {
  Writer w;
  w.bytes({});
  w.str("");
  Reader r(w.data());
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.str().empty());
}

// --- domain types ---------------------------------------------------------------

Metadata sample_metadata() {
  Metadata meta{Policy{}, 12345};
  meta.locs[0] = Location{NodeId{8}, 0};
  meta.locs[3] = Location{NodeId{9}, 1};
  meta.locs[11] = Location{NodeId{10}, 0};
  return meta;
}

TEST(SerdeTest, MetadataRoundTrip) {
  const Metadata meta = sample_metadata();
  Writer w;
  encode(w, meta);
  Reader r(w.data());
  Metadata back;
  decode(r, back);
  EXPECT_EQ(back, meta);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdeTest, PolicyValidationOnDecode) {
  Policy bad;
  bad.k = 8;
  bad.n = 4;  // invalid: n < k
  Writer w;
  encode(w, bad);
  Reader r(w.data());
  Policy back;
  EXPECT_THROW(decode(r, back), WireError);
}

TEST(SerdeTest, TimestampRoundTrip) {
  Writer w;
  encode(w, Timestamp{123456789, 42});
  Reader r(w.data());
  Timestamp back;
  decode(r, back);
  EXPECT_EQ(back, (Timestamp{123456789, 42}));
}

// --- message round trips -----------------------------------------------------------

ObjectVersionId sample_ov() {
  return ObjectVersionId{Key{"photo-123"}, Timestamp{987654321, 3}};
}

TEST(MessagesTest, DecideLocsReqRoundTripProxyAndFs) {
  DecideLocsReq req{sample_ov(), Policy{}, false};
  EXPECT_EQ(req.type(), MessageType::kDecideLocsReq);
  const auto back = decode<DecideLocsReq>(encode(req));
  EXPECT_EQ(back.ov, req.ov);
  EXPECT_FALSE(back.from_fs);

  req.from_fs = true;
  EXPECT_EQ(req.type(), MessageType::kFsDecideLocsReq);
  EXPECT_TRUE(decode<DecideLocsReq>(encode(req)).from_fs);
}

TEST(MessagesTest, DecideLocsRepRoundTrip) {
  DecideLocsRep rep{sample_ov(), sample_metadata(), DataCenterId{1}};
  const auto back = decode<DecideLocsRep>(encode(rep));
  EXPECT_EQ(back.ov, rep.ov);
  EXPECT_EQ(back.meta, rep.meta);
  EXPECT_EQ(back.dc, rep.dc);
}

TEST(MessagesTest, StoreMetadataRoundTrip) {
  StoreMetadataReq req{sample_ov(), sample_metadata()};
  const auto back = decode<StoreMetadataReq>(encode(req));
  EXPECT_EQ(back.ov, req.ov);
  EXPECT_EQ(back.meta, req.meta);

  StoreMetadataRep rep{sample_ov(), Status::kFailure};
  const auto rback = decode<StoreMetadataRep>(encode(rep));
  EXPECT_EQ(rback.status, Status::kFailure);
}

TEST(MessagesTest, StoreFragmentRoundTrip) {
  StoreFragmentReq req;
  req.ov = sample_ov();
  req.meta = sample_metadata();
  req.frag_index = 7;
  req.fragment = Bytes{9, 8, 7, 6};
  req.digest = Sha256::hash(req.fragment);
  const auto back = decode<StoreFragmentReq>(encode(req));
  EXPECT_EQ(back.ov, req.ov);
  EXPECT_EQ(back.frag_index, 7);
  EXPECT_EQ(back.fragment, req.fragment);
  EXPECT_EQ(back.digest, req.digest);
}

TEST(MessagesTest, AmrIndicationRoundTrip) {
  AmrIndication msg{sample_ov()};
  EXPECT_EQ(decode<AmrIndication>(encode(msg)).ov, msg.ov);
}

TEST(MessagesTest, RetrieveTsRoundTrip) {
  RetrieveTsReq req{Key{"k"}, {}, 0};
  EXPECT_EQ(decode<RetrieveTsReq>(encode(req)).key, req.key);

  RetrieveTsRep rep;
  rep.key = Key{"k"};
  rep.entries.push_back({Timestamp{1, 1}, sample_metadata()});
  rep.entries.push_back({Timestamp{2, 1}, Metadata{}});
  const auto back = decode<RetrieveTsRep>(encode(rep));
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[0].ts, (Timestamp{1, 1}));
  EXPECT_EQ(back.entries[0].meta, rep.entries[0].meta);
  EXPECT_EQ(back.entries[1].meta.locs.size(), 0u);
}

TEST(MessagesTest, RetrieveFragRoundTrip) {
  RetrieveFragReq req{sample_ov(), 11};
  const auto back = decode<RetrieveFragReq>(encode(req));
  EXPECT_EQ(back.frag_index, 11);

  RetrieveFragRep rep{sample_ov(), 11, true, Bytes{1, 2}};
  const auto rback = decode<RetrieveFragRep>(encode(rep));
  EXPECT_TRUE(rback.found);
  EXPECT_EQ(rback.fragment, (Bytes{1, 2}));

  RetrieveFragRep bot{sample_ov(), 11, false, {}};
  EXPECT_FALSE(decode<RetrieveFragRep>(encode(bot)).found);
}

TEST(MessagesTest, ConvergeRoundTrips) {
  KlsConvergeReq kreq{sample_ov(), sample_metadata()};
  EXPECT_EQ(decode<KlsConvergeReq>(encode(kreq)).meta, kreq.meta);
  KlsConvergeRep krep{sample_ov(), true};
  EXPECT_TRUE(decode<KlsConvergeRep>(encode(krep)).verified);

  FsConvergeReq freq{sample_ov(), sample_metadata(), true};
  EXPECT_TRUE(decode<FsConvergeReq>(encode(freq)).intends_recovery);

  FsConvergeRep frep;
  frep.ov = sample_ov();
  frep.verified = false;
  frep.needed_fragments = {2, 5};
  frep.also_recovering = true;
  const auto fback = decode<FsConvergeRep>(encode(frep));
  EXPECT_EQ(fback.needed_fragments, (std::vector<uint16_t>{2, 5}));
  EXPECT_TRUE(fback.also_recovering);
  EXPECT_FALSE(fback.verified);
}

TEST(MessagesTest, SiblingStoreRoundTrip) {
  SiblingStoreReq req;
  req.ov = sample_ov();
  req.meta = sample_metadata();
  req.frag_index = 4;
  req.fragment = Bytes(100, 0x5a);
  req.digest = Sha256::hash(req.fragment);
  const auto back = decode<SiblingStoreReq>(encode(req));
  EXPECT_EQ(back.fragment, req.fragment);
  EXPECT_EQ(back.digest, req.digest);

  SiblingStoreRep rep{sample_ov(), 4, Status::kSuccess};
  EXPECT_EQ(decode<SiblingStoreRep>(encode(rep)).frag_index, 4);
}

TEST(MessagesTest, KlsLocsNotifyRoundTrip) {
  KlsLocsNotify msg{sample_ov(), sample_metadata()};
  EXPECT_EQ(decode<KlsLocsNotify>(encode(msg)).meta, msg.meta);
}

TEST(MessagesTest, DecodeRejectsTruncatedPayloads) {
  StoreFragmentReq req;
  req.ov = sample_ov();
  req.meta = sample_metadata();
  req.fragment = Bytes(64, 1);
  req.digest = Sha256::hash(req.fragment);
  Bytes payload = encode(req);
  // Any strict prefix must be rejected, not silently mis-parsed.
  for (size_t cut : {size_t{0}, size_t{1}, size_t{10}, payload.size() / 2,
                     payload.size() - 1}) {
    Bytes truncated(payload.begin(),
                    payload.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode<StoreFragmentReq>(truncated), WireError)
        << "cut=" << cut;
  }
}

TEST(MessagesTest, DecodeRejectsTrailingGarbage) {
  AmrIndication msg{sample_ov()};
  Bytes payload = encode(msg);
  payload.push_back(0);
  EXPECT_THROW(decode<AmrIndication>(payload), WireError);
}

TEST(MessagesTest, FragmentPayloadDominatesWireSize) {
  // Byte accounting sanity: a 25 KiB fragment store is ~25 KiB on the wire.
  StoreFragmentReq req;
  req.ov = sample_ov();
  req.meta = sample_metadata();
  req.fragment = Bytes(25600, 0xcc);
  const Bytes payload = encode(req);
  EXPECT_GT(payload.size(), 25600u);
  EXPECT_LT(payload.size(), 25600u + 300u);
}

TEST(MessagesTest, EnvelopeWireSize) {
  Envelope env{NodeId{1}, NodeId{2}, MessageType::kAmrIndication,
               Bytes(10, 0)};
  EXPECT_EQ(env.wire_size(), Envelope::kHeaderBytes + 10);
}

TEST(MessagesTest, MessageTypeNamesMatchPaperLegends) {
  EXPECT_STREQ(to_string(MessageType::kDecideLocsReq), "DecideLocsReq");
  EXPECT_STREQ(to_string(MessageType::kFsDecideLocsReq), "FSDecideLocsReq");
  EXPECT_STREQ(to_string(MessageType::kAmrIndication), "AMRIndication");
  EXPECT_STREQ(to_string(MessageType::kKlsConvergeReq), "KLSConvergeReq");
  EXPECT_STREQ(to_string(MessageType::kFsConvergeRep), "FSConvergeRep");
  EXPECT_STREQ(to_string(MessageType::kSiblingStoreReq), "SiblingStoreReq");
}

// --- pinned wire format ---------------------------------------------------------
//
// Round trips cannot see a field that encode writes in a different order from
// decode, or one both halves drop, nor a change that moves the byte counts
// the paper's Figures 5–8 report. Every payload is therefore pinned byte for
// byte here: a deliberate format change shows up as a hex diff in this test.

std::string hex(const Bytes& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

template <typename M>
Bytes payload_of(const M& msg) {
  return encode(msg);
}

template <typename M>
MessageType type_of(const M& msg) {
  if constexpr (requires { M::kType; }) {
    return M::kType;
  } else {
    return msg.type();
  }
}

struct GoldenCase {
  const char* name;
  MessageType type;
  Bytes payload;
  std::string hex;
  size_t wire_size;
};

template <typename M>
GoldenCase golden(const char* name, const M& msg, std::string pinned_hex,
                  size_t pinned_wire_size) {
  return {name, type_of(msg), payload_of(msg), std::move(pinned_hex),
          pinned_wire_size};
}

TEST(WireGolden, EveryMessageTypeEncodesToPinnedBytes) {
  // Every field of every message holds a non-default value.
  Policy policy;
  policy.k = 2;
  policy.n = 3;
  policy.max_frags_per_fs = 1;
  policy.max_frags_per_dc = 3;
  policy.data_frags_one_dc = false;
  policy.min_frags_for_success = 3;
  Metadata meta{policy, 0x0102030405};
  meta.locs[0] = Location{NodeId{0x11223344}, 5};  // locs[1] stays undecided
  meta.locs[2] = Location{NodeId{7}, 1};
  const Key key{"k1"};
  const Timestamp ts{0x0a0b0c0d0e, 0x21};
  const ObjectVersionId ov{key, ts};
  const Bytes fragment{0xde, 0xad, 0xbe, 0xef};
  Sha256::Digest digest{};
  for (size_t i = 0; i < digest.size(); ++i) {
    digest[i] = static_cast<uint8_t>(0xa0 + i);
  }
  const Metadata other_meta{Policy{}, 9};

  // Shared pieces, little-endian.
  const std::string key_hex = "020000006b31";   // u32 length, "k1"
  const std::string ts_hex = "0e0d0c0b0a000000"  // wall_micros: i64
                             "21000000";         // proxy: u32
  const std::string ov_hex = key_hex + ts_hex;
  const std::string policy_hex = "020301030003";  // k n fs dc one_dc min
  const std::string meta_hex = policy_hex +
                               "0504030201000000"  // value_size: u64
                               "0300"              // locs count: u16
                               "014433221105"      // locs[0]: fs u32, disk
                               "00"                // locs[1]: undecided
                               "010700000001";     // locs[2]
  const std::string fragment_hex = "04000000deadbeef";  // u32 length + bytes
  const std::string digest_hex =
      "a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf";

  const std::vector<GoldenCase> cases = {
      golden("DecideLocsReq", DecideLocsReq{ov, policy, 0x1234, false},
             ov_hex + policy_hex + "3412000000000000" + "00", 47),
      golden("FsDecideLocsReq", DecideLocsReq{ov, policy, 0x1234, true},
             ov_hex + policy_hex + "3412000000000000" + "01", 47),
      golden("DecideLocsRep", DecideLocsRep{ov, meta, DataCenterId{1}},
             ov_hex + meta_hex + "01", 62),
      golden("StoreMetadataReq", StoreMetadataReq{ov, meta}, ov_hex + meta_hex,
             61),
      golden("StoreMetadataRep", StoreMetadataRep{ov, Status::kFailure, 3},
             ov_hex + "01" + "0300", 35),
      golden("StoreFragmentReq",
             StoreFragmentReq{ov, meta, 2, fragment, digest},
             ov_hex + meta_hex + "0200" + fragment_hex + digest_hex, 103),
      golden("StoreFragmentRep", StoreFragmentRep{ov, 2, Status::kFailure},
             ov_hex + "0200" + "01", 35),
      golden("AmrIndication", AmrIndication{ov}, ov_hex, 32),
      golden("RetrieveTsReq", RetrieveTsReq{key, ts, 5},
             key_hex + ts_hex + "0500", 34),
      golden("RetrieveTsRep",
             RetrieveTsRep{key, {{ts, meta}, {Timestamp{3, 4}, other_meta}},
                           true},
             key_hex + "02000000" + ts_hex + meta_hex +
                 "0300000000000000" + "04000000" +  // Timestamp{3, 4}
                 "040c02060108" + "0900000000000000" + "0c00" +
                 "000000000000000000000000" +  // twelve undecided locs
                 "01",
             106),
      golden("RetrieveFragReq", RetrieveFragReq{ov, 2}, ov_hex + "0200", 34),
      golden("RetrieveFragRep", RetrieveFragRep{ov, 2, true, fragment},
             ov_hex + "0200" + "01" + fragment_hex, 43),
      golden("KlsConvergeReq", KlsConvergeReq{ov, meta}, ov_hex + meta_hex,
             61),
      golden("KlsConvergeRep", KlsConvergeRep{ov, true}, ov_hex + "01", 33),
      golden("FsConvergeReq", FsConvergeReq{ov, meta, true},
             ov_hex + meta_hex + "01", 62),
      golden("FsConvergeRep", FsConvergeRep{ov, true, {1, 0x0203}, true},
             ov_hex + "01" + "0200" + "0100" + "0302" + "01", 40),
      golden("SiblingStoreReq", SiblingStoreReq{ov, meta, 1, fragment, digest},
             ov_hex + meta_hex + "0100" + fragment_hex + digest_hex, 103),
      golden("SiblingStoreRep", SiblingStoreRep{ov, 1, Status::kFailure},
             ov_hex + "0100" + "01", 35),
      golden("KlsLocsNotify", KlsLocsNotify{ov, meta}, ov_hex + meta_hex, 61),
  };

  std::set<MessageType> covered;
  for (const GoldenCase& c : cases) {
    covered.insert(c.type);
    EXPECT_EQ(hex(c.payload), c.hex) << c.name;
    EXPECT_EQ((Envelope{NodeId{1}, NodeId{2}, c.type, c.payload}.wire_size()),
              c.wire_size)
        << c.name;
  }
  EXPECT_EQ(covered.size(), static_cast<size_t>(kMessageTypeCount - 1));
}

// Fuzz-ish robustness: random byte strings never crash the decoders; they
// either parse or throw WireError.
TEST(MessagesTest, RandomBytesEitherParseOrThrow) {
  Rng rng(123);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes junk(rng.uniform_int(0, 200));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.next_u64());
    try {
      (void)decode<FsConvergeRep>(junk);
    } catch (const WireError&) {
      // expected for most inputs
    }
    try {
      (void)decode<RetrieveTsRep>(junk);
    } catch (const WireError&) {
    }
    try {
      (void)decode<StoreFragmentReq>(junk);
    } catch (const WireError&) {
    }
  }
}

}  // namespace
}  // namespace pahoehoe::wire
