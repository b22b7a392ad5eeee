import sys
from pathlib import Path

# the benchmark's tests import the package from source, like bench/run.py
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
