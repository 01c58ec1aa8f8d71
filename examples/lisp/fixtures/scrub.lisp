;; A destructive list walker whose write target hides behind an
;; identity helper: the analysis cannot resolve `(veil l)` to a named
;; location, so the write is ⊤ and the static transformer refuses the
;; whole function. `curare run --speculate` admits it optimistically;
;; the runtime's access log sees that each invocation touches a
;; distinct cell and commits every speculative task clean.
(defun veil (l) l)

(defun crunch (v) (+ v 100))

(defun scrub (l)
  (when (consp l)
    (scrub (cdr l))
    (setf (car (veil l)) (crunch (car l)))))

(defparameter *data* (list 1 2 3 4 5 6 7 8))
