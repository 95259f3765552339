// Protocol messages (paper Figures 2–4 plus the §4 optimization messages).
//
// Each message struct lists its fields once, in wire order, in a static
// `fields()`; wire::encode(msg) and wire::decode<M>(payload) (wire/serde.h)
// turn that list into the payload and back. The Envelope carries the
// routing header. Message-type names follow the legends of the paper's
// Figures 5–8 so benchmark output can be compared line-for-line.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/sha256.h"
#include "common/types.h"
#include "wire/serde.h"

namespace pahoehoe::wire {

enum class MessageType : uint16_t {
  kDecideLocsReq = 1,    ///< proxy → KLS: suggest locations (Fig 2)
  kDecideLocsRep = 2,    ///< KLS → proxy/FS: suggested locations
  kFsDecideLocsReq = 3,  ///< FS → KLS: same request during convergence (§3.5)
  kStoreMetadataReq = 4, ///< proxy → KLS: store(ov, meta)
  kStoreMetadataRep = 5,
  kStoreFragmentReq = 6, ///< proxy → FS: store(ov, meta, frag)
  kStoreFragmentRep = 7,
  kAmrIndication = 8,    ///< proxy/FS → FS: object version is AMR (§4.1)
  kKlsConvergeReq = 9,   ///< FS → KLS: converge(ov, meta) (Fig 4)
  kKlsConvergeRep = 10,
  kFsConvergeReq = 11,   ///< FS → sibling FS: converge(ov, meta)
  kFsConvergeRep = 12,
  kRetrieveTsReq = 13,   ///< proxy → KLS: retrieve_ts(key) (Fig 3)
  kRetrieveTsRep = 14,
  kRetrieveFragReq = 15, ///< proxy/FS → FS: retrieve_frag(ov)
  kRetrieveFragRep = 16,
  kSiblingStoreReq = 17, ///< FS → sibling FS: recovered fragment push (§4.2)
  kSiblingStoreRep = 18,
  kKlsLocsNotify = 19,   ///< KLS → FS: locations decided for an FS request
};

/// Number of distinct message types (for stats arrays).
constexpr int kMessageTypeCount = 20;

const char* to_string(MessageType type);

/// Routing header + serialized payload; what the Network actually delivers.
/// Wire size is the fixed header (14 bytes: from, to, type, payload length)
/// plus the payload.
struct Envelope {
  static constexpr size_t kHeaderBytes = 14;

  NodeId from;
  NodeId to;
  MessageType type{};
  Bytes payload;
  /// Span-context token (obs/span.h) propagating causality across nodes.
  /// Simulation-plane only: never serialized and excluded from wire_size(),
  /// so the paper's byte accounting is unchanged.
  uint64_t span = 0;

  size_t wire_size() const { return kHeaderBytes + payload.size(); }
};

/// Fragment store/retrieve success indicator.
enum class Status : uint8_t { kSuccess = 0, kFailure = 1 };

void encode(Writer& w, Status status);
/// Throws WireError on a byte other than 0 or 1.
void decode(Reader& r, Status& status);

// --- Put path -------------------------------------------------------------

struct DecideLocsReq {
  ObjectVersionId ov;
  Policy policy;
  /// Size of the object version's value, when the requester knows it
  /// (proxies always do; FSs learned it from their fragment stores). Lets a
  /// KLS that first hears of a version through convergence record the size,
  /// so its location notifications carry enough for recovery sizing.
  uint64_t value_size = 0;
  /// True when sent by an FS during convergence (§3.5): the KLS persists its
  /// suggestion before replying and notifies the sibling FSs.
  bool from_fs = false;

  MessageType type() const {
    return from_fs ? MessageType::kFsDecideLocsReq
                   : MessageType::kDecideLocsReq;
  }
  template <class S>
  static auto fields(S& m) {
    return std::tie(m.ov, m.policy, m.value_size, m.from_fs);
  }
};

struct DecideLocsRep {
  ObjectVersionId ov;
  /// Slot-aligned suggestions: locs[i] set only for fragment indices the
  /// responding KLS's data center is responsible for.
  Metadata meta;
  DataCenterId dc;

  static constexpr MessageType kType = MessageType::kDecideLocsRep;
  template <class S>
  static auto fields(S& m) { return std::tie(m.ov, m.meta, m.dc); }
};

struct StoreMetadataReq {
  ObjectVersionId ov;
  Metadata meta;

  static constexpr MessageType kType = MessageType::kStoreMetadataReq;
  template <class S> static auto fields(S& m) { return std::tie(m.ov, m.meta); }
};

struct StoreMetadataRep {
  ObjectVersionId ov;
  Status status = Status::kSuccess;
  /// Locations decided in the KLS's (merged) stored metadata at ack time.
  /// The proxy may conclude a version is AMR only from acks attesting
  /// complete metadata (decided_count == policy.n); counting a partial-
  /// metadata ack would let a lost second-round store leave a KLS
  /// permanently incomplete after the AMR indications killed convergence.
  uint16_t decided_count = 0;

  static constexpr MessageType kType = MessageType::kStoreMetadataRep;
  template <class S>
  static auto fields(S& m) { return std::tie(m.ov, m.status, m.decided_count); }
};

struct StoreFragmentReq {
  ObjectVersionId ov;
  Metadata meta;
  uint16_t frag_index = 0;
  Bytes fragment;
  Sha256::Digest digest{};

  static constexpr MessageType kType = MessageType::kStoreFragmentReq;
  template <class S>
  static auto fields(S& m) {
    return std::tie(m.ov, m.meta, m.frag_index, m.fragment, m.digest);
  }
};

struct StoreFragmentRep {
  ObjectVersionId ov;
  uint16_t frag_index = 0;
  Status status = Status::kSuccess;

  static constexpr MessageType kType = MessageType::kStoreFragmentRep;
  template <class S>
  static auto fields(S& m) { return std::tie(m.ov, m.frag_index, m.status); }
};

struct AmrIndication {
  ObjectVersionId ov;

  static constexpr MessageType kType = MessageType::kAmrIndication;
  template <class S> static auto fields(S& m) { return std::tie(m.ov); }
};

// --- Get path ---------------------------------------------------------------

struct RetrieveTsReq {
  Key key;
  /// Paging (§3.5: the proxy iteratively retrieves timestamps instead of
  /// all versions at once). Only versions strictly older than `before_ts`
  /// are returned (no bound when invalid), newest first, at most
  /// `max_entries` of them (0 = unlimited).
  Timestamp before_ts;
  uint16_t max_entries = 0;

  static constexpr MessageType kType = MessageType::kRetrieveTsReq;
  template <class S>
  static auto fields(S& m) {
    return std::tie(m.key, m.before_ts, m.max_entries);
  }
};

struct RetrieveTsRep {
  Key key;
  struct Entry {
    Timestamp ts;
    Metadata meta;
    friend bool operator==(const Entry&, const Entry&) = default;
    template <class S>
    static auto fields(S& e) { return std::tie(e.ts, e.meta); }
  };
  /// Newest-first (descending timestamp).
  std::vector<Entry> entries;
  /// True iff older versions beyond this page exist.
  bool more = false;

  static constexpr MessageType kType = MessageType::kRetrieveTsRep;
  template <class S>
  static auto fields(S& m) { return std::tie(m.key, m.entries, m.more); }
};

/// RetrieveTsRep::entries: a u32 count, then the entries.
void encode(Writer& w, const std::vector<RetrieveTsRep::Entry>& entries);
void decode(Reader& r, std::vector<RetrieveTsRep::Entry>& entries);

struct RetrieveFragReq {
  ObjectVersionId ov;
  uint16_t frag_index = 0;

  static constexpr MessageType kType = MessageType::kRetrieveFragReq;
  template <class S>
  static auto fields(S& m) { return std::tie(m.ov, m.frag_index); }
};

struct RetrieveFragRep {
  ObjectVersionId ov;
  uint16_t frag_index = 0;
  bool found = false;  ///< false ⇒ the paper's ⊥ fragment reply
  Bytes fragment;

  static constexpr MessageType kType = MessageType::kRetrieveFragRep;
  template <class S>
  static auto fields(S& m) {
    return std::tie(m.ov, m.frag_index, m.found, m.fragment);
  }
};

// --- Convergence ------------------------------------------------------------

struct KlsConvergeReq {
  ObjectVersionId ov;
  Metadata meta;

  static constexpr MessageType kType = MessageType::kKlsConvergeReq;
  template <class S> static auto fields(S& m) { return std::tie(m.ov, m.meta); }
};

struct KlsConvergeRep {
  ObjectVersionId ov;
  bool verified = false;

  static constexpr MessageType kType = MessageType::kKlsConvergeRep;
  template <class S>
  static auto fields(S& m) { return std::tie(m.ov, m.verified); }
};

struct FsConvergeReq {
  ObjectVersionId ov;
  Metadata meta;
  /// Sibling-fragment-recovery intent flag (§4.2).
  bool intends_recovery = false;

  static constexpr MessageType kType = MessageType::kFsConvergeReq;
  template <class S>
  static auto fields(S& m) {
    return std::tie(m.ov, m.meta, m.intends_recovery);
  }
};

struct FsConvergeRep {
  ObjectVersionId ov;
  bool verified = false;
  /// Fragment indices the replying FS needs recovered (§4.2); only filled
  /// when the request had intends_recovery set.
  std::vector<uint16_t> needed_fragments;
  /// Set when the replying FS is itself attempting sibling recovery, so the
  /// requester can apply the lower-id backoff rule.
  bool also_recovering = false;

  static constexpr MessageType kType = MessageType::kFsConvergeRep;
  template <class S>
  static auto fields(S& m) {
    return std::tie(m.ov, m.verified, m.needed_fragments, m.also_recovering);
  }
};

struct SiblingStoreReq {
  ObjectVersionId ov;
  Metadata meta;
  uint16_t frag_index = 0;
  Bytes fragment;
  Sha256::Digest digest{};

  static constexpr MessageType kType = MessageType::kSiblingStoreReq;
  template <class S>
  static auto fields(S& m) {
    return std::tie(m.ov, m.meta, m.frag_index, m.fragment, m.digest);
  }
};

struct SiblingStoreRep {
  ObjectVersionId ov;
  uint16_t frag_index = 0;
  Status status = Status::kSuccess;

  static constexpr MessageType kType = MessageType::kSiblingStoreRep;
  template <class S>
  static auto fields(S& m) { return std::tie(m.ov, m.frag_index, m.status); }
};

struct KlsLocsNotify {
  ObjectVersionId ov;
  Metadata meta;

  static constexpr MessageType kType = MessageType::kKlsLocsNotify;
  template <class S> static auto fields(S& m) { return std::tie(m.ov, m.meta); }
};

}  // namespace pahoehoe::wire
