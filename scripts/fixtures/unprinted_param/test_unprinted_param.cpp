// A parameter struct with no PrintTo: gtest prints it as
// "N-byte object <…>", which is what scripts/ci.sh's ctest-name guard
// rejects.
#include <gtest/gtest.h>

#include <cstddef>

namespace {

struct Shape {
  std::size_t rows, cols;
};

class Unprinted : public ::testing::TestWithParam<Shape> {};

TEST_P(Unprinted, HasArea) {
  EXPECT_GT(GetParam().rows * GetParam().cols, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Unprinted,
                         ::testing::Values(Shape{1, 2}, Shape{3, 4}));

}  // namespace
