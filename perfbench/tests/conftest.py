import sys
from pathlib import Path

# the benchmark's modules and the package sources, as run.py sees them
_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent))
sys.path.insert(0, str(_HERE.parent.parent / "src"))
