// Kept only because the frozen dpz_bench/dpz_bench.cpp still includes it.
#pragma once
#include "linalg/eigen_sym.h"
