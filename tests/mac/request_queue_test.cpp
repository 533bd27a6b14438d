#include "mac/request_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace charisma::mac {
namespace {

PendingRequest voice_request(common::UserId user, double deadline) {
  PendingRequest r;
  r.user = user;
  r.type = RequestType::kVoice;
  r.deadline = deadline;
  return r;
}

PendingRequest data_request(common::UserId user) {
  PendingRequest r;
  r.user = user;
  r.type = RequestType::kData;
  r.deadline = std::numeric_limits<double>::infinity();
  return r;
}

TEST(RequestQueue, PushAndContains) {
  RequestQueue q;
  EXPECT_TRUE(q.empty());
  q.push(voice_request(1, 1.0));
  EXPECT_TRUE(q.contains(1));
  EXPECT_FALSE(q.contains(2));
  EXPECT_EQ(q.size(), 1u);
}

TEST(RequestQueue, RemoveByUser) {
  RequestQueue q;
  q.push(voice_request(1, 1.0));
  q.push(data_request(2));
  q.remove(1);
  EXPECT_FALSE(q.contains(1));
  EXPECT_TRUE(q.contains(2));
}

TEST(RequestQueue, PurgeExpiredVoiceOnly) {
  RequestQueue q;
  q.push(voice_request(1, 0.5));   // expires
  q.push(voice_request(2, 2.0));   // survives
  q.push(data_request(3));         // data never expires
  const int purged = q.purge_expired_voice(1.0);
  EXPECT_EQ(purged, 1);
  EXPECT_FALSE(q.contains(1));
  EXPECT_TRUE(q.contains(2));
  EXPECT_TRUE(q.contains(3));
}

TEST(RequestQueue, PurgeAtExactDeadline) {
  RequestQueue q;
  q.push(voice_request(1, 1.0));
  EXPECT_EQ(q.purge_expired_voice(1.0), 1);  // deadline reached => dead
}

TEST(RequestQueue, AgeAllIncrementsWaiting) {
  RequestQueue q;
  q.push(voice_request(1, 5.0));
  q.push(data_request(2));
  q.age_all();
  q.age_all();
  for (const auto& r : q.entries()) {
    EXPECT_EQ(r.frames_waited, 2);
  }
}

TEST(RequestQueue, FifoOrderPreserved) {
  RequestQueue q;
  for (int i = 0; i < 5; ++i) q.push(data_request(i));
  int expected = 0;
  for (const auto& r : q.entries()) {
    EXPECT_EQ(r.user, expected++);
  }
}

TEST(RequestQueue, ClearEmpties) {
  RequestQueue q;
  q.push(data_request(1));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.contains(1));
  q.push(data_request(1));  // a cleared user may queue again
  EXPECT_TRUE(q.contains(1));
}

TEST(RequestQueue, SecondRequestForAQueuedUserThrowsNamingIt) {
  RequestQueue q;
  q.push(data_request(7));
  try {
    q.push(voice_request(7, 1.0));
    FAIL() << "duplicate push accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("user 7"), std::string::npos)
        << e.what();
  }
  // The rejected push left the queue as it was.
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.entries()[0].type, RequestType::kData);
  q.remove(7);
  EXPECT_NO_THROW(q.push(voice_request(7, 1.0)));  // served users re-queue
}

TEST(RequestQueue, RemovingAnAbsentUserIsANoOp) {
  RequestQueue q;
  q.push(data_request(1));
  q.push(data_request(3));
  q.remove(2);
  q.remove(4);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.entries()[0].user, 1);
  EXPECT_EQ(q.entries()[1].user, 3);
}

TEST(RequestQueue, RandomOperationsMatchABruteForceModel) {
  // The queue against a plain FIFO vector searched linearly: seeded random
  // push / remove / purge / age / clear sequences over a small id space
  // (so pushes often collide with queued users and removes often miss).
  // After every operation, membership of every id, the size and the FIFO
  // contents must agree.
  constexpr int kIds = 40;
  common::RngStream rng(0x5eed12);
  RequestQueue q;
  std::vector<PendingRequest> model;
  const auto modeled = [&model](common::UserId id) {
    return std::any_of(model.begin(), model.end(),
                       [id](const PendingRequest& r) { return r.user == id; });
  };
  double now = 0.0;
  for (int op = 0; op < 20000; ++op) {
    const int kind = rng.uniform_int(100);
    const common::UserId id = rng.uniform_int(kIds);
    if (kind < 45) {
      auto r = rng.bernoulli(0.6)
                   ? voice_request(id, now + rng.uniform(0.0, 0.1))
                   : data_request(id);
      r.frames_waited = rng.uniform_int(5);
      if (modeled(id)) {
        EXPECT_THROW(q.push(r), std::logic_error);
      } else {
        q.push(r);
        model.push_back(r);
      }
    } else if (kind < 75) {
      q.remove(id);
      std::erase_if(model,
                    [id](const PendingRequest& r) { return r.user == id; });
    } else if (kind < 90) {
      now += 0.01;
      const auto expired = std::erase_if(model, [now](const PendingRequest& r) {
        return r.type == RequestType::kVoice && now + 1e-9 >= r.deadline;
      });
      EXPECT_EQ(q.purge_expired_voice(now), static_cast<int>(expired));
    } else if (kind < 99) {
      q.age_all();
      for (auto& r : model) ++r.frames_waited;
    } else {
      q.clear();
      model.clear();
    }

    ASSERT_EQ(q.size(), model.size()) << "op " << op;
    ASSERT_EQ(q.empty(), model.empty());
    for (common::UserId u = 0; u < kIds; ++u) {
      ASSERT_EQ(q.contains(u), modeled(u)) << "op " << op << " user " << u;
    }
    const auto entries = q.entries();
    for (std::size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(entries[i].user, model[i].user) << "op " << op;
      ASSERT_EQ(entries[i].type, model[i].type);
      ASSERT_EQ(entries[i].deadline, model[i].deadline);
      ASSERT_EQ(entries[i].frames_waited, model[i].frames_waited);
    }
  }
}

}  // namespace
}  // namespace charisma::mac
