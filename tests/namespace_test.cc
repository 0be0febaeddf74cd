// The graft namespace's index (src/graft/namespace.h): every registered
// name is found and no other, tombstones keep a churning namespace at one
// size, names too long to sit in a slot compare through their point, and
// the function and event kinds stay apart under one name.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/graft/event_point.h"
#include "src/graft/function_point.h"
#include "src/graft/namespace.h"
#include "src/txn/txn_manager.h"

namespace vino {
namespace {

class NamespaceTest : public ::testing::Test {
 protected:
  std::unique_ptr<FunctionGraftPoint> Function(const std::string& name,
                                               GraftNamespace* ns,
                                               uint64_t answer = 0) {
    return std::make_unique<FunctionGraftPoint>(
        name, [answer](std::span<const uint64_t>) { return answer; },
        FunctionGraftPoint::Config{}, &txn_, &host_, ns);
  }

  // Invokes the function point registered as `name`, whose default
  // function answers the number it was made with.
  Status Answer(const std::string& name, uint64_t& answer) const {
    return ns_.WithFunction(name, [&answer](FunctionGraftPoint& point) {
      answer = point.Invoke({});
      return Status::kOk;
    });
  }

  Status FindFunction(std::string_view name) const {
    return ns_.WithFunction(name,
                            [](FunctionGraftPoint&) { return Status::kOk; });
  }

  TxnManager txn_;
  HostCallTable host_;
  GraftNamespace ns_;
};

TEST_F(NamespaceTest, TenThousandNamesAreAllFoundAndNoOthers) {
  constexpr int kNames = 10'000;
  std::vector<std::unique_ptr<FunctionGraftPoint>> points;
  points.reserve(kNames);
  for (int i = 0; i < kNames; ++i) {
    points.push_back(
        Function("serve." + std::to_string(i) + ".readahead", &ns_, i));
  }
  for (int i = 0; i < kNames; ++i) {
    uint64_t answer = ~0ull;
    ASSERT_EQ(Answer("serve." + std::to_string(i) + ".readahead", answer),
              Status::kOk)
        << i;
    EXPECT_EQ(answer, static_cast<uint64_t>(i));
  }
  for (int i = 0; i < kNames; ++i) {
    EXPECT_EQ(FindFunction("serve." + std::to_string(i) + ".evict"),
              Status::kNotFound);
    EXPECT_EQ(FindFunction("serve." + std::to_string(i + kNames) + ".readahead"),
              Status::kNotFound);
  }
  EXPECT_EQ(FindFunction(""), Status::kNotFound);
  EXPECT_EQ(ns_.List().size(), static_cast<size_t>(kNames));
}

TEST_F(NamespaceTest, RegisterUnregisterChurnKeepsItsCapacity) {
  constexpr int kNames = 64;
  std::vector<std::unique_ptr<FunctionGraftPoint>> points;
  std::vector<std::string> names;
  for (int i = 0; i < kNames; ++i) {
    names.push_back("churn." + std::to_string(i) + ".sched");
    points.push_back(Function(names.back(), nullptr, i));
  }
  // The first round: every name registered, then every name unregistered.
  for (auto& point : points) {
    ns_.RegisterFunction(point.get());
  }
  for (const std::string& name : names) {
    ns_.Unregister(name);
  }
  const size_t capacity = ns_.capacity();

  // 100,000 more, in an order that mixes live entries with tombstones: each
  // round unregisters one name and registers another, so about half the
  // names are live at any time.
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int round = 0; round < 100'000; ++round) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ns_.Unregister(names[x % kNames]);
    ns_.RegisterFunction(points[(x >> 32) % kNames].get());
  }
  EXPECT_EQ(ns_.capacity(), capacity);

  for (auto& point : points) {
    ns_.RegisterFunction(point.get());
  }
  for (int i = 0; i < kNames; ++i) {
    uint64_t answer = ~0ull;
    ASSERT_EQ(Answer(names[i], answer), Status::kOk) << names[i];
    EXPECT_EQ(answer, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(ns_.List().size(), static_cast<size_t>(kNames));
  EXPECT_EQ(ns_.capacity(), capacity);
}

TEST_F(NamespaceTest, LongNamesCompareInFull) {
  // A slot holds a name of up to 47 bytes; these two share their first 47
  // and differ after, so only the points' own names tell them apart.
  const std::string prefix(47, 'p');
  const std::string a = prefix + std::string(153, 'a');
  const std::string b = prefix + "b";
  ASSERT_EQ(a.size(), 200u);
  auto pa = Function(a, &ns_, 1);
  auto pb = Function(b, &ns_, 2);
  uint64_t answer = 0;
  ASSERT_EQ(Answer(a, answer), Status::kOk);
  EXPECT_EQ(answer, 1u);
  ASSERT_EQ(Answer(b, answer), Status::kOk);
  EXPECT_EQ(answer, 2u);
  EXPECT_EQ(FindFunction(prefix), Status::kNotFound);
  EXPECT_EQ(FindFunction(prefix + std::string(153, 'b')), Status::kNotFound);
  EXPECT_EQ(FindFunction(a.substr(0, 199)), Status::kNotFound);
  ns_.Unregister(a);
  EXPECT_EQ(FindFunction(a), Status::kNotFound);
  ASSERT_EQ(Answer(b, answer), Status::kOk);
  EXPECT_EQ(answer, 2u);
}

TEST_F(NamespaceTest, FunctionAndEventPointsShareANameApart) {
  const std::string name = "net.tcp.80.connection";
  auto function = Function(name, &ns_, 5);
  EventGraftPoint event(name, EventGraftPoint::Config{}, &txn_, &host_, &ns_);
  EXPECT_EQ(ns_.WithFunction(name,
                             [&](FunctionGraftPoint& p) {
                               return &p == function.get() ? Status::kOk
                                                           : Status::kInternal;
                             }),
            Status::kOk);
  EXPECT_EQ(ns_.WithEvent(name,
                          [&](EventGraftPoint& p) {
                            return &p == &event ? Status::kOk
                                                : Status::kInternal;
                          }),
            Status::kOk);
  const std::vector<GraftNamespace::EntryInfo> entries = ns_.List();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_NE(entries[0].is_event, entries[1].is_event);

  ns_.Unregister(name);
  EXPECT_EQ(FindFunction(name), Status::kNotFound);
  EXPECT_EQ(ns_.WithEvent(name, [](EventGraftPoint&) { return Status::kOk; }),
            Status::kNotFound);
  EXPECT_TRUE(ns_.List().empty());
}

TEST_F(NamespaceTest, ReRegisteringANameReplacesTheEntry) {
  const std::string name = "openfile.7.compute-ra";
  auto first = Function(name, &ns_, 1);
  auto second = Function(name, &ns_, 2);
  uint64_t answer = 0;
  ASSERT_EQ(Answer(name, answer), Status::kOk);
  EXPECT_EQ(answer, 2u);
  EXPECT_EQ(ns_.List().size(), 1u);

  // So does a name too long to sit in its slot.
  const std::string long_name(100, 'n');
  auto third = Function(long_name, &ns_, 3);
  auto fourth = Function(long_name, &ns_, 4);
  ASSERT_EQ(Answer(long_name, answer), Status::kOk);
  EXPECT_EQ(answer, 4u);
  EXPECT_EQ(ns_.List().size(), 2u);
}

}  // namespace
}  // namespace vino
