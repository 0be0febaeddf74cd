// Stream graft tests (paper §4.4): transforming file data as it crosses
// the kernel boundary — encryption on write, decryption on read — plus
// abort behaviour (torn transforms degrade to identity, never garbage).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/fs/file_system.h"
#include "src/graft/namespace.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"

namespace vino {
namespace {

constexpr GraftIdentity kUser{1001, false};
constexpr uint64_t kXorKey = 0x5a;

class StreamTest : public ::testing::Test {
 protected:
  StreamTest()
      : disk_(DiskParams{}, &clock_),
        cache_(64, 8, &disk_, &clock_),
        fs_(&disk_, &cache_, &txn_, &host_, &ns_) {
    file_ = *fs_.CreateFile("data", 64 * 4096);
    open_ = *fs_.Open(file_);
  }

  // The §4.4 xor stream graft in vISA: byte-wise xor from in to out.
  // Args: r0 = in, r1 = out, r2 = count, r3 = direction (xor is symmetric,
  // so direction is ignored — but it is there for asymmetric transforms).
  std::shared_ptr<Graft> XorGraft() {
    Asm a("xor-stream");
    auto loop = a.NewLabel();
    auto done = a.NewLabel();
    a.LoadImm(R4, 0);
    a.LoadImm(R5, kXorKey);
    a.Bind(loop);
    a.BgeU(R4, R2, done);
    a.Add(R6, R0, R4);
    a.Ld8(R7, R6);
    a.Xor(R7, R7, R5);
    a.Add(R6, R1, R4);
    a.St8(R6, R7);
    a.AddI(R4, R4, 1);
    a.Jmp(loop);
    a.Bind(done);
    a.LoadImm(R0, 0);
    a.Halt();
    Result<Program> inst = Instrument(*a.Finish());
    EXPECT_TRUE(inst.ok());
    return std::make_shared<Graft>(
        "xor-stream", *VerifyAndCompile(*inst, host_), kUser, 4096);
  }

  ManualClock clock_;
  SimDisk disk_;
  BufferCache cache_;
  TxnManager txn_;
  HostCallTable host_;
  GraftNamespace ns_;
  FlatFileSystem fs_;
  FileId file_ = 0;
  OpenFile* open_ = nullptr;
};

TEST_F(StreamTest, IdentityWithoutGraft) {
  std::vector<uint8_t> payload(100);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i);
  }
  ASSERT_TRUE(open_->WriteBytes(0, payload.size(), payload.data()).ok());

  std::vector<uint8_t> readback(payload.size());
  ASSERT_TRUE(open_->ReadBytes(0, readback.size(), readback.data()).ok());
  EXPECT_EQ(readback, payload);
}

TEST_F(StreamTest, UnwrittenBlocksReadAsZeros) {
  std::vector<uint8_t> readback(64, 0xff);
  ASSERT_TRUE(open_->ReadBytes(10 * 4096, readback.size(), readback.data()).ok());
  EXPECT_EQ(readback, std::vector<uint8_t>(64, 0));
}

TEST_F(StreamTest, XorGraftEncryptsOnWriteDecryptsOnRead) {
  ASSERT_EQ(open_->stream_point().Replace(XorGraft()), Status::kOk);

  const std::string secret = "attack at dawn";
  ASSERT_TRUE(open_->WriteBytes(0, secret.size(),
                                reinterpret_cast<const uint8_t*>(secret.data()))
                  .ok());

  // On-disk bytes are ciphertext (xor of the plaintext).
  Result<BlockId> block = fs_.BlockFor(file_, 0);
  ASSERT_TRUE(block.ok());
  const uint8_t* raw = fs_.BlockData(*block);
  ASSERT_NE(raw, nullptr);
  for (size_t i = 0; i < secret.size(); ++i) {
    EXPECT_EQ(raw[i], static_cast<uint8_t>(secret[i]) ^ kXorKey) << i;
  }

  // Reading back through the graft decrypts (xor is symmetric).
  std::vector<uint8_t> readback(secret.size());
  ASSERT_TRUE(open_->ReadBytes(0, readback.size(), readback.data()).ok());
  EXPECT_EQ(std::string(readback.begin(), readback.end()), secret);
}

TEST_F(StreamTest, MultiChunkTransforms) {
  // 20 KB crosses the 8 KB chunk boundary twice.
  ASSERT_EQ(open_->stream_point().Replace(XorGraft()), Status::kOk);
  std::vector<uint8_t> payload(20 * 1024);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_TRUE(open_->WriteBytes(0, payload.size(), payload.data()).ok());
  std::vector<uint8_t> readback(payload.size());
  ASSERT_TRUE(open_->ReadBytes(0, readback.size(), readback.data()).ok());
  EXPECT_EQ(readback, payload);
}

TEST_F(StreamTest, MisalignedOffsets) {
  ASSERT_EQ(open_->stream_point().Replace(XorGraft()), Status::kOk);
  std::vector<uint8_t> payload(5000, 0x33);
  ASSERT_TRUE(open_->WriteBytes(2222, payload.size(), payload.data()).ok());
  std::vector<uint8_t> readback(payload.size());
  ASSERT_TRUE(open_->ReadBytes(2222, readback.size(), readback.data()).ok());
  EXPECT_EQ(readback, payload);
}

TEST_F(StreamTest, AbortingStreamGraftDegradesToIdentityNotGarbage) {
  // Write plaintext with no graft; install a graft that transforms half the
  // chunk then hangs. The read must deliver the *untransformed* data (the
  // pre-filled output), never a torn half-transformed chunk.
  const std::string data(1000, 'x');
  ASSERT_TRUE(open_->WriteBytes(0, data.size(),
                                reinterpret_cast<const uint8_t*>(data.data()))
                  .ok());

  Asm a("torn");
  auto loop = a.NewLabel();
  auto spin = a.NewLabel();
  a.LoadImm(R4, 0);
  a.LoadImm(R5, 500);  // Transform only the first half...
  a.LoadImm(R8, kXorKey);
  a.Bind(loop);
  a.BgeU(R4, R5, spin);
  a.Add(R6, R0, R4);
  a.Ld8(R7, R6);
  a.Xor(R7, R7, R8);
  a.Add(R6, R1, R4);
  a.St8(R6, R7);
  a.AddI(R4, R4, 1);
  a.Jmp(loop);
  a.Bind(spin);
  a.Jmp(spin);  // ...then hang.
  Result<Program> inst = Instrument(*a.Finish());
  ASSERT_TRUE(inst.ok());
  auto torn = std::make_shared<Graft>(
      "torn", *VerifyAndCompile(*inst, host_), kUser, 4096);
  ASSERT_EQ(open_->stream_point().Replace(torn), Status::kOk);

  std::vector<uint8_t> readback(data.size());
  ASSERT_TRUE(open_->ReadBytes(0, readback.size(), readback.data()).ok());
  // Fuel exhaustion aborted the graft; identity delivered.
  EXPECT_EQ(std::string(readback.begin(), readback.end()), data);
  EXPECT_FALSE(open_->stream_point().grafted());
  EXPECT_GE(txn_.stats().aborts, 1u);
}

TEST_F(StreamTest, StreamPointInNamespaceAndClosedWithFile) {
  const std::string name = open_->stream_point().name();
  const auto visit = [this, &name] {
    return ns_.WithFunction(name, [](FunctionGraftPoint&) { return Status::kOk; });
  };
  EXPECT_EQ(visit(), Status::kOk);
  ASSERT_EQ(fs_.Close(open_), Status::kOk);
  EXPECT_EQ(visit(), Status::kNotFound);
  open_ = nullptr;
}

TEST_F(StreamTest, WriteBoundsChecked) {
  uint8_t byte = 0;
  EXPECT_FALSE(open_->WriteBytes(64 * 4096, 1, &byte).ok());  // At EOF.
  EXPECT_FALSE(open_->WriteBytes(0, 0, &byte).ok());          // Empty.
  // Clamped write near EOF.
  std::vector<uint8_t> tail(8192, 1);
  Result<OpenFile::ReadResult> w =
      open_->WriteBytes(64 * 4096 - 100, tail.size(), tail.data());
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->bytes_read, 100u);
}

}  // namespace
}  // namespace vino
