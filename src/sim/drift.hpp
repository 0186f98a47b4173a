// Forwards to core/drift.hpp, where CycleTimeTrace lives.
#pragma once
#include "core/drift.hpp"
