// Fixture: seeded violations -- fixed temp names race under ctest -j.
#include <filesystem>
#include <string>
std::string bn_path() { return "/tmp/bcop_test_bn.bin"; }
std::string csv_path() {
  return (std::filesystem::temp_directory_path() / "bcop_test.csv").string();
}
