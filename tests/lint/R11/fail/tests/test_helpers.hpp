// Fixture: the one sanctioned temp-path helper (exempt from R11).
#include <filesystem>
#include <string>
inline std::string unique_temp_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() / tag).string();
}
