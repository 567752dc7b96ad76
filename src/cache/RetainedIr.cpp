//===- cache/RetainedIr.cpp ----------------------------------------------===//

#include "cache/RetainedIr.h"

#include "support/Stats.h"

using namespace lcm;
using namespace lcm::cache;

bool RetainedIrCache::get(const Digest &Key, RetainedModule &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It == Index.end()) {
    ++Counters.Misses;
    lcm::Stats::bump("cache.retained.misses");
    return false;
  }
  Lru.splice(Lru.begin(), Lru, It->second);
  Out = It->second->second;
  ++Counters.Hits;
  lcm::Stats::bump("cache.retained.hits");
  return true;
}

void RetainedIrCache::put(const Digest &Key, RetainedModule M) {
  const size_t Cost = M.bytes();
  if (Cost > MaxBytes)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It != Index.end()) {
    Bytes -= It->second->second.bytes();
    Lru.erase(It->second);
    Index.erase(It);
  }
  while (Bytes + Cost > MaxBytes && !Lru.empty()) {
    auto &Cold = Lru.back();
    Bytes -= Cold.second.bytes();
    Index.erase(Cold.first);
    Lru.pop_back();
    ++Counters.Evictions;
    lcm::Stats::bump("cache.retained.evictions");
  }
  Lru.emplace_front(Key, std::move(M));
  Index[Key] = Lru.begin();
  Bytes += Cost;
  ++Counters.Insertions;
  lcm::Stats::bump("cache.retained.insertions");
}

bool RetainedIrCache::touch(const Digest &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It == Index.end())
    return false;
  Lru.splice(Lru.begin(), Lru, It->second);
  return true;
}

RetainedIrCache::Stats RetainedIrCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  Stats S = Counters;
  S.BytesResident = Bytes;
  S.Entries = Index.size();
  return S;
}
