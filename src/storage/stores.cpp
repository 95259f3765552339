#include "storage/stores.h"

#include <algorithm>

#include "common/check.h"

namespace pahoehoe::storage {

void TimestampStore::add(const Key& key, const Timestamp& ts) {
  PAHOEHOE_CHECK(ts.valid());
  by_key_[key].insert(ts);
}

std::vector<Timestamp> TimestampStore::find(const Key& key) const {
  auto it = by_key_.find(key);
  if (it == by_key_.end()) return {};
  return std::vector<Timestamp>(it->second.begin(), it->second.end());
}

bool TimestampStore::contains(const Key& key, const Timestamp& ts) const {
  auto it = by_key_.find(key);
  return it != by_key_.end() && it->second.count(ts) > 0;
}

bool MetaStore::merge(const ObjectVersionId& ov, const Metadata& meta) {
  auto [it, inserted] = by_ov_.try_emplace(ov, meta);
  if (inserted) return true;
  Metadata& stored = it->second;
  bool changed = stored.merge_locs(meta);
  if (stored.value_size == 0 && meta.value_size != 0) {
    stored.value_size = meta.value_size;
    changed = true;
  }
  return changed;
}

const Metadata* MetaStore::find(const ObjectVersionId& ov) const {
  auto it = by_ov_.find(ov);
  return it == by_ov_.end() ? nullptr : &it->second;
}

bool MetaStore::contains(const ObjectVersionId& ov) const {
  return by_ov_.count(ov) > 0;
}

void MetaStore::erase(const ObjectVersionId& ov) { by_ov_.erase(ov); }

std::vector<ObjectVersionId> MetaStore::all_versions() const {
  std::vector<ObjectVersionId> out;
  out.reserve(by_ov_.size());
  for (const auto& [ov, meta] : by_ov_) {
    (void)meta;
    out.push_back(ov);
  }
  return out;
}

bool StoredFragment::intact() const {
  if (!intact_cache_.has_value()) {
    intact_cache_ = Sha256::hash(data) == digest;
  }
  return *intact_cache_;
}

FragStore::Entry& FragStore::upsert(const ObjectVersionId& ov,
                                    const Metadata& meta) {
  auto [it, inserted] = by_ov_.try_emplace(ov);
  if (inserted) {
    it->second.meta = meta;
  } else {
    it->second.meta.merge_locs(meta);
    if (it->second.meta.value_size == 0) {
      it->second.meta.value_size = meta.value_size;
    }
  }
  return it->second;
}

FragStore::Entry* FragStore::find(const ObjectVersionId& ov) {
  auto it = by_ov_.find(ov);
  return it == by_ov_.end() ? nullptr : &it->second;
}

const FragStore::Entry* FragStore::find(const ObjectVersionId& ov) const {
  auto it = by_ov_.find(ov);
  return it == by_ov_.end() ? nullptr : &it->second;
}

bool FragStore::contains(const ObjectVersionId& ov) const {
  return by_ov_.count(ov) > 0;
}

void FragStore::put_fragment(const ObjectVersionId& ov, const Metadata& meta,
                             int frag_index, Bytes data,
                             const Sha256::Digest& digest, uint8_t disk) {
  Entry& entry = upsert(ov, meta);
  StoredFragment frag;
  frag.data = std::move(data);
  frag.digest = digest;
  frag.disk = disk;
  frag.intact_cache_ = true;
  entry.fragments[frag_index] = std::move(frag);
}

const StoredFragment* FragStore::Entry::intact_fragment(int frag_index) const {
  auto it = fragments.find(frag_index);
  if (it == fragments.end()) return nullptr;
  return it->second.intact() ? &it->second : nullptr;
}

const StoredFragment* FragStore::fragment_if_intact(const ObjectVersionId& ov,
                                                    int frag_index) const {
  const Entry* entry = find(ov);
  return entry == nullptr ? nullptr : entry->intact_fragment(frag_index);
}

size_t FragStore::destroy_disk(uint8_t disk) {
  size_t lost = 0;
  for (auto& [ov, entry] : by_ov_) {
    (void)ov;
    for (auto it = entry.fragments.begin(); it != entry.fragments.end();) {
      if (it->second.disk == disk) {
        it = entry.fragments.erase(it);
        ++lost;
      } else {
        ++it;
      }
    }
  }
  return lost;
}

bool FragStore::corrupt_fragment(const ObjectVersionId& ov, int frag_index) {
  Entry* entry = find(ov);
  if (entry == nullptr) return false;
  auto it = entry->fragments.find(frag_index);
  if (it == entry->fragments.end() || it->second.data.empty()) return false;
  it->second.data[it->second.data.size() / 2] ^= 0xff;
  it->second.invalidate_intact_cache();
  return true;
}

std::vector<int> FragStore::corrupt_fragments(const ObjectVersionId& ov) const {
  std::vector<int> out;
  const Entry* entry = find(ov);
  if (entry == nullptr) return out;
  for (const auto& [index, frag] : entry->fragments) {
    if (!frag.intact()) out.push_back(index);
  }
  return out;
}

}  // namespace pahoehoe::storage
