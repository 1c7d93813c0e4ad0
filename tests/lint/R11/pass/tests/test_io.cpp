// Fixture: temp files named through the helper; prose may say /tmp/.
#include "test_helpers.hpp"
std::string model_path() { return unique_temp_path("model.bcop"); }
