// SHA-256 kernels: the FIPS 180-4 vectors under every supported kernel, and
// the cross-kernel differential battery that pins the SHA-NI kernel
// digest-identical to the scalar oracle (the simulation's determinism
// contract, DESIGN.md §10) across lengths, split points and alignments.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/rng.h"
#include "common/sha256.h"
#include "common/sha256_kernels.h"
#include "common/types.h"

namespace pahoehoe {
namespace {

/// Restores the dispatcher's own kernel choice on scope exit, so a failing
/// assertion can't leak a forced kernel into later tests.
struct KernelGuard {
  ~KernelGuard() { sha256::reset_kernel(); }
};

Bytes random_bytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes out(size);
  for (auto& b : out) b = static_cast<uint8_t>(rng.next_u64());
  return out;
}

Bytes text(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// The digest under the scalar oracle.
Sha256::Digest oracle(std::span<const uint8_t> data) {
  sha256::force_kernel(sha256::Kernel::kScalar);
  return Sha256::hash(data);
}

// --- FIPS 180-4 vectors -------------------------------------------------------

TEST(Sha256Test, FipsVectorsUnderEveryKernel) {
  KernelGuard guard;
  const struct {
    Bytes input;
    const char* digest;
  } vectors[] = {
      {{}, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {text("abc"),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      // 448 bits: the padding spills into a second block.
      {text("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {Bytes(1'000'000, static_cast<uint8_t>('a')),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (sha256::Kernel kernel : sha256::supported_kernels()) {
    sha256::force_kernel(kernel);
    for (const auto& v : vectors) {
      EXPECT_EQ(Sha256::hex(Sha256::hash(v.input)), v.digest)
          << sha256::to_string(kernel) << ", " << v.input.size() << " bytes";
    }
  }
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<uint8_t>(i));
  Sha256 incremental;
  // Feed in awkward chunk sizes straddling block boundaries.
  size_t offset = 0;
  for (size_t chunk : {1u, 63u, 64u, 65u, 500u, 307u}) {
    const size_t take = std::min(chunk, data.size() - offset);
    incremental.update(std::span(data).subspan(offset, take));
    offset += take;
  }
  incremental.update(std::span(data).subspan(offset));
  EXPECT_EQ(incremental.finish(), Sha256::hash(data));
}

TEST(Sha256Test, SingleBitChangesDigest) {
  Bytes data(100, 0xab);
  auto d1 = Sha256::hash(data);
  data[50] ^= 1;
  auto d2 = Sha256::hash(data);
  EXPECT_NE(d1, d2);
}

// --- kernel selection ---------------------------------------------------------

TEST(Sha256KernelTest, NamesRoundTripAndScalarAlwaysSupported) {
  for (sha256::Kernel k : {sha256::Kernel::kScalar, sha256::Kernel::kShaNi}) {
    EXPECT_EQ(sha256::parse_kernel(sha256::to_string(k)), k);
  }
  EXPECT_FALSE(sha256::parse_kernel("auto").has_value());
  EXPECT_FALSE(sha256::parse_kernel("avx2").has_value());
  const std::vector<sha256::Kernel> supported = sha256::supported_kernels();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front(), sha256::Kernel::kScalar);
  EXPECT_EQ(supported.back(), sha256::best_kernel());
}

TEST(Sha256KernelTest, ForceAndResetFollowTheEnvironment) {
  KernelGuard guard;
  // setenv runs before any hashing thread exists in this process.
  const std::optional<std::string> saved = env::get("PAHOEHOE_SHA256_KERNEL");
  ::setenv("PAHOEHOE_SHA256_KERNEL", "scalar", 1);
  sha256::reset_kernel();
  EXPECT_EQ(sha256::active_kernel(), sha256::Kernel::kScalar);
  ::setenv("PAHOEHOE_SHA256_KERNEL", "auto", 1);
  sha256::reset_kernel();
  EXPECT_EQ(sha256::active_kernel(), sha256::best_kernel());
  ::setenv("PAHOEHOE_SHA256_KERNEL", "sha512", 1);  // unknown: warn, use best
  sha256::reset_kernel();
  EXPECT_EQ(sha256::active_kernel(), sha256::best_kernel());
  sha256::force_kernel(sha256::Kernel::kScalar);
  EXPECT_EQ(sha256::active_kernel(), sha256::Kernel::kScalar);
  if (saved.has_value()) {
    ::setenv("PAHOEHOE_SHA256_KERNEL", saved->c_str(), 1);
  } else {
    ::unsetenv("PAHOEHOE_SHA256_KERNEL");
  }
}

// --- cross-kernel differential ------------------------------------------------

class Sha256CrossKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (sha256::best_kernel() == sha256::Kernel::kScalar) {
      GTEST_SKIP() << "no SHA-NI kernel on this host";
    }
  }
  KernelGuard guard_;
};

TEST_F(Sha256CrossKernelTest, RawCompressMatchesScalarFromAnyState) {
  // The kernel contract itself, from arbitrary (non-IV) chaining values.
  const sha256::detail::CompressFn shani = sha256::detail::shani_impl();
  ASSERT_NE(shani, nullptr);
  Rng rng(17);
  for (size_t nblocks = 1; nblocks <= 9; ++nblocks) {
    const Bytes data = random_bytes(nblocks * 64, 100 + nblocks);
    uint32_t scalar_state[8];
    for (uint32_t& w : scalar_state) w = static_cast<uint32_t>(rng.next_u64());
    uint32_t shani_state[8];
    std::copy(std::begin(scalar_state), std::end(scalar_state), shani_state);
    sha256::detail::compress_scalar(scalar_state, data.data(), nblocks);
    shani(shani_state, data.data(), nblocks);
    EXPECT_TRUE(std::equal(std::begin(scalar_state), std::end(scalar_state),
                           shani_state))
        << nblocks << " blocks";
  }
}

TEST_F(Sha256CrossKernelTest, EveryLengthMatchesScalar) {
  const Bytes data = random_bytes(1200, 1);
  for (size_t len = 0; len <= data.size(); ++len) {
    const auto input = std::span(data).first(len);
    const Sha256::Digest expected = oracle(input);
    sha256::force_kernel(sha256::Kernel::kShaNi);
    ASSERT_EQ(Sha256::hash(input), expected) << len << " bytes";
  }
}

TEST_F(Sha256CrossKernelTest, UpdateSplitAtEveryOffsetMatchesScalar) {
  const Bytes data = random_bytes(3 * 64, 2);
  const Sha256::Digest expected = oracle(data);
  for (sha256::Kernel kernel : sha256::supported_kernels()) {
    sha256::force_kernel(kernel);
    for (size_t split = 0; split <= data.size(); ++split) {
      Sha256 h;
      h.update(std::span(data).first(split));
      h.update(std::span(data).subspan(split));
      ASSERT_EQ(h.finish(), expected)
          << sha256::to_string(kernel) << " split at " << split;
    }
  }
}

TEST_F(Sha256CrossKernelTest, MisalignedStartMatchesScalar) {
  const Bytes buffer = random_bytes(64 * 20 + 64, 3);
  for (size_t shift = 0; shift < 64; ++shift) {
    for (size_t len : {size_t{64}, size_t{640}, size_t{64 * 20 - 1}}) {
      const auto input = std::span(buffer).subspan(shift, len);
      const Sha256::Digest expected = oracle(input);
      sha256::force_kernel(sha256::Kernel::kShaNi);
      ASSERT_EQ(Sha256::hash(input), expected)
          << "shift " << shift << ", " << len << " bytes";
    }
  }
}

TEST_F(Sha256CrossKernelTest, FragmentSizedInputsMatchScalar) {
  // A 100 KiB value at k=4 gives the paper's 25 KiB fragments.
  for (size_t size : {size_t{25 * 1024}, size_t{100 * 1024}}) {
    const Bytes data = random_bytes(size, size);
    const Sha256::Digest expected = oracle(data);
    sha256::force_kernel(sha256::Kernel::kShaNi);
    EXPECT_EQ(Sha256::hash(data), expected) << size << " bytes";
  }
}

}  // namespace
}  // namespace pahoehoe
