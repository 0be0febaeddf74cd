// Replays the checked-in adversarial corpus (tests/corpus/loader_reject/)
// through the exact deserialize -> GraftLoader::Load pipeline and asserts
// every fixture earns the Status recorded in its file — and, for every
// fixture past the signature, that VerifyAndCompile alone earns it too.
// This pins each loader rejection path — decode bombs, truncation, bit
// flips, wrong keys, forged manifests, mask writes, unsandboxed accesses —
// byte-for-byte against regression.
//
// The corpus is generated (and self-checked against the live pipeline) by
// `graftfuzz --emit-corpus tests/corpus/loader_reject`; the count test
// fails if the checked-in set drifts from the builder.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/fuzz/corpus.h"
#include "src/graft/loader.h"
#include "src/graft/namespace.h"
#include "src/sfi/host.h"
#include "src/sfi/signing.h"
#include "src/sfi/verifier.h"

namespace vino {
namespace {

std::vector<std::string> CorpusFiles() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(VINO_CORPUS_DIR)) {
    if (entry.path().extension() == ".corpus") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(LoaderCorpusTest, BuilderSelfCheckPasses) {
  // BuildCorpus re-checks every fixture's expectation against the live
  // pipeline as it constructs them; a non-empty error means an expectation
  // went stale.
  std::string error;
  const std::vector<fuzz::CorpusFixture> fixtures = fuzz::BuildCorpus(&error);
  EXPECT_EQ(error, "");
  EXPECT_GE(fixtures.size(), 50u);
}

TEST(LoaderCorpusTest, CheckedInFixturesEarnTheirRecordedStatus) {
  HostCallTable host;
  uint32_t ok_id = 0;
  uint32_t internal_id = 0;
  fuzz::RegisterCorpusHost(host, &ok_id, &internal_id);
  GraftNamespace ns;
  GraftLoader loader(&ns, &host, SigningAuthority(fuzz::CorpusSigningKey()));

  const SigningAuthority authority(fuzz::CorpusSigningKey());

  const std::vector<std::string> paths = CorpusFiles();
  ASSERT_GE(paths.size(), 50u)
      << "corpus directory " << VINO_CORPUS_DIR << " looks truncated";

  size_t past_signature = 0;
  for (const std::string& path : paths) {
    Result<fuzz::CorpusFixture> fixture = fuzz::ParseCorpusFile(path);
    ASSERT_TRUE(fixture.ok()) << "unparseable fixture: " << path;
    const Status got = fuzz::ReplayFixture(fixture->bytes, loader);
    EXPECT_EQ(got, fixture->expect)
        << fixture->name << " (" << path << "): the pipeline says "
        << StatusName(got) << " but the fixture pins "
        << StatusName(fixture->expect);

    // Past the signature, the loader is VerifyAndCompile: run directly on
    // the decoded program, it must earn the same status.
    const Result<SignedGraft> sg = DeserializeSignedGraft(fixture->bytes);
    if (sg.ok() && authority.Verify(*sg)) {
      ++past_signature;
      const Status direct = VerifyAndCompile(sg->program, host).status();
      EXPECT_EQ(direct, fixture->expect)
          << fixture->name << " (" << path << "): VerifyAndCompile says "
          << StatusName(direct) << " but the fixture pins "
          << StatusName(fixture->expect);
    }
  }
  EXPECT_GT(past_signature, 0u);
}

TEST(LoaderCorpusTest, CheckedInSetMatchesTheBuilder) {
  std::string error;
  const std::vector<fuzz::CorpusFixture> fixtures = fuzz::BuildCorpus(&error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(CorpusFiles().size(), fixtures.size())
      << "checked-in corpus drifted; regenerate with "
         "`graftfuzz --emit-corpus tests/corpus/loader_reject`";
}

}  // namespace
}  // namespace vino
