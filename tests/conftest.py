# The package pins BLAS to one thread only when it is imported before numpy
# (see isac_ident/__init__.py), and test modules import numpy first. Importing
# it here, before any test module, runs the suite under the CLI's BLAS
# setting: at 64-row batches OpenBLAS would otherwise split the DNN's layer
# products over two threads, for the same bits, no speed-up and twice the CPU.
import isac_ident  # noqa: F401
