import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the harness modules import each other by bare name, as run.py does
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
