#include "sim/trace_ops.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace clic {
namespace {

/// (base hint id, noise tuple) packed in mixed radix — the base id as the
/// high digit, one base-`domain` digit per draw — mapped to the id the
/// tuple's hint vector was interned as. Open addressing with linear
/// probing, grown at half load; ~0 marks an empty slot, which no packed
/// key reaches because NoiseKeysPack keeps the key space below it.
class NoiseMemo {
 public:
  /// The interned id memoised for `key`, or nullptr.
  const HintSetId* Find(std::uint64_t key) const {
    for (std::size_t i = Home(key);; i = (i + 1) & mask_) {
      if (keys_[i] == key) return &ids_[i];
      if (keys_[i] == kEmpty) return nullptr;
    }
  }

  /// Records a key Find() just missed.
  void Insert(std::uint64_t key, HintSetId id) {
    if (2 * (size_ + 1) > keys_.size()) Grow();
    Place(key, id);
    ++size_;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::size_t Home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Place(std::uint64_t key, HintSetId id) {
    std::size_t i = Home(key);
    while (keys_[i] != kEmpty) i = (i + 1) & mask_;
    keys_[i] = key;
    ids_[i] = id;
  }

  void Grow() {
    std::vector<std::uint64_t> keys(keys_.size() * 2, kEmpty);
    std::vector<HintSetId> ids(keys.size());
    keys.swap(keys_);
    ids.swap(ids_);
    mask_ = keys_.size() - 1;
    --shift_;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] != kEmpty) Place(keys[i], ids[i]);
    }
  }

  std::vector<std::uint64_t> keys_ = std::vector<std::uint64_t>(64, kEmpty);
  std::vector<HintSetId> ids_ = std::vector<HintSetId>(64);
  std::size_t mask_ = 63;
  int shift_ = 64 - 6;
  std::size_t size_ = 0;
};

/// True when every (base id, tuple) key fits the memo: the key space
/// num_base * domain^num_types must stay below 2^64 - 1.
bool NoiseKeysPack(std::uint64_t num_base, std::uint64_t domain,
                   int num_types) {
  std::uint64_t space = std::max<std::uint64_t>(num_base, 1);
  for (int t = 0; t < num_types; ++t) {
    if (space > ~std::uint64_t{0} / domain) return false;
    space *= domain;
  }
  return true;
}

}  // namespace

Trace InjectNoiseHints(const Trace& base, int num_types, int domain_size,
                       double zipf_z, std::uint64_t seed) {
  Trace out;
  out.name = base.name + "+noise" + std::to_string(num_types);
  out.client_bound = base.client_bound;  // clients are copied unchanged
  if (num_types <= 0) {
    // No noise: copy the requests and deep-copy the registry. Sharing
    // base.hints would alias mutable interning state — a later Intern()
    // through either trace would mutate both.
    out.hints = std::make_shared<HintRegistry>(*base.hints);
    out.requests = base.requests;
    return out;
  }
  Rng rng(seed);
  const std::uint64_t domain =
      static_cast<std::uint64_t>(std::max(1, domain_size));
  ZipfGenerator zipf(domain, zipf_z);
  // The draws and the interning order are those of building, per
  // request, base vector + draws and interning it; the memo only skips
  // the copy and the hash for a (base id, tuple) already interned.
  const bool memoise = NoiseKeysPack(base.hints->size(), domain, num_types);
  NoiseMemo memo;
  std::vector<std::uint32_t> draws(static_cast<std::size_t>(num_types));
  out.requests = base.requests;
  for (Request& r : out.requests) {
    std::uint64_t key = r.hint_set;
    for (std::uint32_t& d : draws) {
      d = zipf(rng);
      key = key * domain + d;
    }
    if (memoise) {
      if (const HintSetId* id = memo.Find(key)) {
        r.hint_set = *id;
        continue;
      }
    }
    HintVector v = base.hints->Get(r.hint_set);
    v.attrs.insert(v.attrs.end(), draws.begin(), draws.end());
    r.hint_set = out.hints->Intern(std::move(v));
    if (memoise) memo.Insert(key, r.hint_set);
  }
  return out;
}

Trace Interleave(const std::string& name,
                 const std::vector<const Trace*>& sources) {
  Trace out;
  out.name = name;
  std::size_t total = 0;
  for (const Trace* t : sources) total += t->size();
  out.requests.reserve(total);
  std::vector<std::size_t> pos(sources.size(), 0);
  // Pre-intern a hint-id translation table per source to keep the merge
  // loop free of hashing for already-seen ids.
  std::vector<std::vector<std::uint32_t>> remap(sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    remap[s].assign(sources[s]->hints->size(), kInvalidIndex);
  }
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t s = 0; s < sources.size(); ++s) {
      if (pos[s] >= sources[s]->size()) continue;
      progressed = true;
      Request r = sources[s]->requests[pos[s]++];
      r.client = static_cast<ClientId>(s);
      std::uint32_t& mapped = remap[s][r.hint_set];
      if (mapped == kInvalidIndex) {
        HintVector v = sources[s]->hints->Get(r.hint_set);
        v.client = static_cast<ClientId>(s);
        mapped = out.hints->Intern(std::move(v));
      }
      r.hint_set = mapped;
      out.requests.push_back(r);
    }
  }
  out.CacheMaxClient();
  return out;
}

}  // namespace clic
