/**
 * @file
 * Byte-exact comparison with the committed outputs under
 * tests/expected/, shared by the tests that hold them.
 *
 * A committed output changes only together with a change that means to
 * move simulated results. On a mismatch the test writes what it got to
 * <file>.actual in the tests' build directory and names that file in
 * the failure; re-baselining is copying it over the committed file and
 * committing the diff with its reason.
 */

#ifndef PVA_TESTS_GOLDEN_HH
#define PVA_TESTS_GOLDEN_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

namespace pva::test
{

/** 1-based line of the first byte where @p a and @p b differ. */
inline std::size_t
firstDifferingLine(const std::string &a, const std::string &b)
{
    const auto diff = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
    return 1 + std::count(a.begin(), diff.first, '\n');
}

/** Expect @p got to equal the committed file @p path byte for byte;
 *  on a mismatch, leave @p got in PVA_GOLDEN_ACTUAL_DIR to inspect. */
inline void
expectMatchesGolden(const std::string &got, const char *path)
{
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "cannot read " << path;
    std::ostringstream expected;
    expected << in.rdbuf();
    const std::string want = expected.str();
    if (got == want)
        return;

    const std::string file(path);
    const std::string actual = std::string(PVA_GOLDEN_ACTUAL_DIR) + "/" +
                               file.substr(file.find_last_of('/') + 1) +
                               ".actual";
    std::ofstream(actual, std::ios::binary) << got;
    ADD_FAILURE() << "output differs from " << path << " first at line "
                  << firstDifferingLine(got, want) << "; this run's output "
                  << "is in " << actual;
}

} // namespace pva::test

#endif // PVA_TESTS_GOLDEN_HH
