#include "common/sha256.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "common/env.h"
#include "common/sha256_kernels.h"

namespace pahoehoe {
namespace sha256 {
namespace detail {
namespace {

constexpr uint32_t rotr(uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void process_block(uint32_t* state, const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

void compress_scalar(uint32_t* state, const uint8_t* data, size_t nblocks) {
  for (size_t i = 0; i < nblocks; ++i) process_block(state, data + i * 64);
}

}  // namespace detail

// --- dispatch -----------------------------------------------------------------
//
// Same shape as the GF(2^8) dispatcher (erasure/gf256_dispatch.cpp): the
// choice is made once — $PAHOEHOE_SHA256_KERNEL if set, otherwise the
// fastest kernel both compiled in and supported by CPUID — and installed in
// an atomic function pointer the hot path reads relaxed (any published value
// is a valid, bit-exact kernel, so no ordering is needed).
namespace {

bool cpu_supports_shani() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

detail::CompressFn fn_for(Kernel k) {
  return k == Kernel::kShaNi ? detail::shani_impl() : &detail::compress_scalar;
}

bool kernel_compiled(Kernel k) { return fn_for(k) != nullptr; }

bool kernel_supported(Kernel k) {
  if (k == Kernel::kScalar) return true;
  return kernel_compiled(k) && cpu_supports_shani();
}

std::atomic<detail::CompressFn> g_fn{nullptr};
std::atomic<int> g_active{static_cast<int>(Kernel::kScalar)};

void install(Kernel k) {
  // Publish the name first, then the function pointer that gates first-use
  // initialization. Both values are always individually valid.
  g_active.store(static_cast<int>(k), std::memory_order_relaxed);
  g_fn.store(fn_for(k), std::memory_order_relaxed);
}

Kernel default_kernel() {
  const std::optional<std::string> override =
      env::override_value("PAHOEHOE_SHA256_KERNEL");
  if (!override.has_value() || *override == "auto") {
    return best_kernel();
  }
  const std::optional<Kernel> requested = parse_kernel(*override);
  if (!requested.has_value()) {
    std::fprintf(stderr,
                 "pahoehoe: unknown PAHOEHOE_SHA256_KERNEL=\"%s\" "
                 "(want scalar|shani|auto); using %s\n",
                 override->c_str(), to_string(best_kernel()));
    return best_kernel();
  }
  if (!kernel_supported(*requested)) {
    std::fprintf(stderr,
                 "pahoehoe: PAHOEHOE_SHA256_KERNEL=%s is not %s on this host; "
                 "using %s\n",
                 override->c_str(),
                 kernel_compiled(*requested) ? "supported" : "compiled in",
                 to_string(best_kernel()));
    return best_kernel();
  }
  return *requested;
}

void init_dispatch() {
  // Function-local static: exactly one thread runs the initializer, any
  // racing threads block until the install is visible.
  static const bool initialized = [] {
    install(default_kernel());
    return true;
  }();
  (void)initialized;
}

}  // namespace

namespace detail {

CompressFn active_compress() {
  CompressFn fn = g_fn.load(std::memory_order_relaxed);
  if (fn == nullptr) {
    init_dispatch();
    fn = g_fn.load(std::memory_order_relaxed);
  }
  return fn;
}

}  // namespace detail

const char* to_string(Kernel k) {
  return k == Kernel::kShaNi ? "shani" : "scalar";
}

std::optional<Kernel> parse_kernel(std::string_view name) {
  if (name == "scalar") return Kernel::kScalar;
  if (name == "shani") return Kernel::kShaNi;
  return std::nullopt;
}

std::vector<Kernel> supported_kernels() {
  std::vector<Kernel> out;
  for (Kernel k : {Kernel::kScalar, Kernel::kShaNi}) {
    if (kernel_supported(k)) out.push_back(k);
  }
  return out;
}

Kernel best_kernel() {
  return kernel_supported(Kernel::kShaNi) ? Kernel::kShaNi : Kernel::kScalar;
}

Kernel active_kernel() {
  init_dispatch();
  return static_cast<Kernel>(g_active.load(std::memory_order_relaxed));
}

void force_kernel(Kernel k) {
  PAHOEHOE_CHECK_MSG(kernel_supported(k),
                     "sha256::force_kernel: kernel not supported on this host");
  init_dispatch();
  install(k);
}

void reset_kernel() {
  init_dispatch();
  install(default_kernel());
}

}  // namespace sha256

// --- Sha256 -------------------------------------------------------------------

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(std::span<const uint8_t> data) {
  PAHOEHOE_CHECK_MSG(!finished_, "Sha256::update after finish");
  const sha256::detail::CompressFn compress =
      sha256::detail::active_compress();
  total_bytes_ += data.size();
  size_t offset = 0;
  if (buffered_ > 0) {
    size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == buffer_.size()) {
      compress(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  // Every whole block left goes to the kernel in one call.
  const size_t nblocks = (data.size() - offset) / 64;
  if (nblocks > 0) {
    compress(state_.data(), data.data() + offset, nblocks);
    offset += nblocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Sha256::Digest Sha256::finish() {
  PAHOEHOE_CHECK_MSG(!finished_, "Sha256::finish called twice");
  finished_ = true;

  // Append 0x80, then zeros until 8 bytes remain in the block, then the
  // big-endian bit length: one padding block, or two when fewer than 9
  // bytes of the last one are free.
  const uint64_t bit_length = total_bytes_ * 8;
  std::array<uint8_t, 128> pad{};
  std::memcpy(pad.data(), buffer_.data(), buffered_);
  pad[buffered_] = 0x80;
  const size_t nblocks = buffered_ < 56 ? 1 : 2;
  uint8_t* length_field = pad.data() + nblocks * 64 - 8;
  for (int i = 0; i < 8; ++i) {
    length_field[i] = static_cast<uint8_t>(bit_length >> ((7 - i) * 8));
  }
  sha256::detail::active_compress()(state_.data(), pad.data(), nblocks);

  Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[i * 4 + 0] = static_cast<uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Sha256::Digest Sha256::hash(std::span<const uint8_t> data) {
  Sha256 hasher;
  hasher.update(data);
  return hasher.finish();
}

std::string Sha256::hex(const Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

}  // namespace pahoehoe
