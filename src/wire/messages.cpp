#include "wire/messages.h"

namespace pahoehoe::wire {

const char* to_string(MessageType type) {
  switch (type) {
    case MessageType::kDecideLocsReq: return "DecideLocsReq";
    case MessageType::kDecideLocsRep: return "DecideLocsRep";
    case MessageType::kFsDecideLocsReq: return "FSDecideLocsReq";
    case MessageType::kStoreMetadataReq: return "StoreMetadataReq";
    case MessageType::kStoreMetadataRep: return "StoreMetadataRep";
    case MessageType::kStoreFragmentReq: return "StoreFragmentReq";
    case MessageType::kStoreFragmentRep: return "StoreFragmentRep";
    case MessageType::kAmrIndication: return "AMRIndication";
    case MessageType::kKlsConvergeReq: return "KLSConvergeReq";
    case MessageType::kKlsConvergeRep: return "KLSConvergeRep";
    case MessageType::kFsConvergeReq: return "FSConvergeReq";
    case MessageType::kFsConvergeRep: return "FSConvergeRep";
    case MessageType::kRetrieveTsReq: return "RetrieveTsReq";
    case MessageType::kRetrieveTsRep: return "RetrieveTsRep";
    case MessageType::kRetrieveFragReq: return "RetrieveFragReq";
    case MessageType::kRetrieveFragRep: return "RetrieveFragRep";
    case MessageType::kSiblingStoreReq: return "SiblingStoreReq";
    case MessageType::kSiblingStoreRep: return "SiblingStoreRep";
    case MessageType::kKlsLocsNotify: return "KLSLocsNotify";
  }
  return "?";
}

void encode(Writer& w, Status status) { w.u8(static_cast<uint8_t>(status)); }

void decode(Reader& r, Status& status) {
  const uint8_t v = r.u8();
  if (v > 1) throw WireError("invalid status byte");
  status = static_cast<Status>(v);
}

void encode(Writer& w, const std::vector<RetrieveTsRep::Entry>& entries) {
  w.u32(static_cast<uint32_t>(entries.size()));
  for (const auto& entry : entries) encode(w, entry);
}

void decode(Reader& r, std::vector<RetrieveTsRep::Entry>& entries) {
  const uint32_t count = r.u32();
  // Do NOT reserve from a wire-controlled u32 count: a corrupted count of
  // ~2^32 would allocate gigabytes before the truncation check runs. Growth
  // during the loop is bounded by the bytes actually present.
  entries.clear();
  for (uint32_t i = 0; i < count; ++i) decode(r, entries.emplace_back());
}

}  // namespace pahoehoe::wire
