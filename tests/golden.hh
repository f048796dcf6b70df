/**
 * @file
 * Golden-file comparison shared by the golden tests. The goldens live
 * in tests/golden/ (GENESYS_GOLDEN_DIR); on a mismatch the actual text
 * is written to `<golden>.actual` in the test's working directory.
 */

#ifndef GENESYS_TESTS_GOLDEN_HH
#define GENESYS_TESTS_GOLDEN_HH

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

inline void
expectGolden(const std::string &name, const std::string &actual)
{
    std::ifstream in(std::string(GENESYS_GOLDEN_DIR) + "/" + name);
    std::stringstream want;
    want << in.rdbuf();
    if (want.str() != actual)
        std::ofstream(name + ".actual") << actual;
    EXPECT_EQ(want.str(), actual)
        << "golden " << name << " differs; actual text in " << name
        << ".actual";
}

#endif // GENESYS_TESTS_GOLDEN_HH
