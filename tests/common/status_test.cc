#include "src/common/status.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

namespace atropos {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, FactoryConstructorsCarryCodeAndMessage) {
  Status s = Status::Cancelled("task 7 cancelled");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCancelled());
  EXPECT_EQ(s.message(), "task 7 cancelled");
  EXPECT_EQ(s.ToString(), "cancelled: task 7 cancelled");
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status::Timeout("a"), Status::Timeout("b"));
  EXPECT_FALSE(Status::Timeout() == Status::Cancelled());
}

TEST(StatusTest, CopiesShareTheMessageAndMovesLeaveNoHeapState) {
  Status a = Status::Internal("ledger out of sync");
  Status copy = a;
  EXPECT_EQ(copy.code(), StatusCode::kInternal);
  EXPECT_EQ(copy.message(), "ledger out of sync");
  EXPECT_EQ(&copy.message(), &a.message());  // one immutable message, shared

  Status moved = std::move(a);
  EXPECT_EQ(moved.message(), "ledger out of sync");
  EXPECT_EQ(&moved.message(), &copy.message());

  copy = Status::Ok();
  EXPECT_TRUE(copy.ok());
  EXPECT_EQ(copy.message(), "");
  EXPECT_EQ(moved.ToString(), "internal: ledger out of sync");

  // An empty message is no message: it reads back empty and prints none.
  Status bare = Status::Cancelled("");
  EXPECT_EQ(bare.message(), "");
  EXPECT_EQ(bare.ToString(), "cancelled");
  EXPECT_EQ(Status(StatusCode::kTimeout).ToString(), "timeout");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 9; c++) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(9);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> out = std::move(v).value();
  EXPECT_EQ(*out, 9);
}

}  // namespace
}  // namespace atropos
